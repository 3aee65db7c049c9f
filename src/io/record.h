// Line-oriented record serialisation.
//
// SWAPP's persistence format is deliberately boring: one record per line,
// whitespace-separated fields, strings quoted with backslash escapes, a
// `#`-prefixed header naming the record kind and format version.  It is
// diff-able, greppable, and stable across platforms — what you want for
// benchmark databases that get collected on one system, archived, and
// consumed years later on another (exactly the "published benchmark data"
// workflow of the paper).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.h"

namespace swapp::io {

/// Writes records to a stream.  Each row() call emits one line.
class RecordWriter {
 public:
  RecordWriter(std::ostream& os, const std::string& kind, int version);

  /// Starts a new record of the given tag.
  RecordWriter& row(const std::string& tag);
  RecordWriter& field(const std::string& value);  ///< quoted string
  RecordWriter& field(double value);              ///< round-trip precision
  RecordWriter& field(std::int64_t value);
  RecordWriter& field(int value) { return field(static_cast<std::int64_t>(value)); }
  RecordWriter& field(std::uint64_t value);

  /// Flushes the pending record (also called by row() and the destructor).
  void finish();
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

 private:
  std::ostream& os_;
  std::ostringstream line_;
  bool pending_ = false;
};

/// One parsed record: a tag plus its fields.
struct Record {
  std::string tag;
  std::vector<std::string> fields;

  const std::string& str(std::size_t i) const;
  /// Field `i` as a number; the whole field must parse (`inf` included),
  /// else InvalidArgument.
  double num(std::size_t i) const;
  /// Field `i` as a decimal integer; the whole field must parse.
  std::int64_t integer(std::size_t i) const;
};

/// Reads records written by RecordWriter; validates kind and version.
class RecordReader {
 public:
  RecordReader(std::istream& is, const std::string& expected_kind,
               int expected_version);

  /// Next record, or false at end of stream.
  bool next(Record& out);

 private:
  std::istream& is_;
};

/// Escapes/unescapes one string field.
std::string quote(const std::string& s);
std::string unquote(const std::string& s);

}  // namespace swapp::io
