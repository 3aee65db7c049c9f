#include "io/record.h"

#include <cctype>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

namespace swapp::io {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
  out += '"';
  return out;
}

std::string unquote(const std::string& s) {
  SWAPP_REQUIRE(s.size() >= 2 && s.front() == '"' && s.back() == '"',
                "malformed quoted string: " + s);
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 1; i + 1 < s.size(); ++i) {
    if (s[i] == '\\' && i + 2 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

RecordWriter::RecordWriter(std::ostream& os, const std::string& kind,
                           int version)
    : os_(os) {
  os_ << "#swapp " << quote(kind) << " v" << version << '\n';
}

RecordWriter& RecordWriter::row(const std::string& tag) {
  finish();
  line_.str({});
  line_ << tag;
  pending_ = true;
  return *this;
}

RecordWriter& RecordWriter::field(const std::string& value) {
  SWAPP_ASSERT(pending_, "field() before row()");
  line_ << ' ' << quote(value);
  return *this;
}

RecordWriter& RecordWriter::field(double value) {
  SWAPP_ASSERT(pending_, "field() before row()");
  line_ << ' ' << std::setprecision(17) << value;
  return *this;
}

RecordWriter& RecordWriter::field(std::int64_t value) {
  SWAPP_ASSERT(pending_, "field() before row()");
  line_ << ' ' << value;
  return *this;
}

RecordWriter& RecordWriter::field(std::uint64_t value) {
  SWAPP_ASSERT(pending_, "field() before row()");
  line_ << ' ' << value;
  return *this;
}

void RecordWriter::finish() {
  if (pending_) {
    os_ << line_.str() << '\n';
    pending_ = false;
  }
}

RecordWriter::~RecordWriter() { finish(); }

const std::string& Record::str(std::size_t i) const {
  SWAPP_REQUIRE(i < fields.size(), "record field index out of range");
  return fields[i];
}

double Record::num(std::size_t i) const {
  const std::string& f = str(i);
  std::size_t used = 0;
  try {
    const double v = std::stod(f, &used);
    if (used == f.size()) return v;
  } catch (const std::exception&) {
  }
  throw InvalidArgument("expected a number, got: " + f);
}

std::int64_t Record::integer(std::size_t i) const {
  const std::string& f = str(i);
  std::size_t used = 0;
  try {
    const std::int64_t v = std::stoll(f, &used);
    if (used == f.size()) return v;
  } catch (const std::exception&) {
  }
  throw InvalidArgument("expected an integer, got: " + f);
}

namespace {

/// Splits one line into tag + fields, honouring quoted strings.
Record parse_line(const std::string& line) {
  Record out;
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  const auto take_token = [&]() -> std::string {
    skip_space();
    if (i >= line.size()) return {};
    if (line[i] == '"') {
      const std::size_t start = i;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
        } else if (line[i] == '"') {
          ++i;
          break;
        } else {
          ++i;
        }
      }
      return unquote(line.substr(start, i - start));
    }
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    return line.substr(start, i - start);
  };

  out.tag = take_token();
  while (true) {
    skip_space();
    if (i >= line.size()) break;
    out.fields.push_back(take_token());
  }
  return out;
}

}  // namespace

RecordReader::RecordReader(std::istream& is, const std::string& expected_kind,
                           int expected_version)
    : is_(is) {
  std::string header;
  SWAPP_REQUIRE(static_cast<bool>(std::getline(is_, header)),
                "empty stream: no swapp header");
  const Record h = parse_line(header);
  SWAPP_REQUIRE(h.tag == "#swapp", "not a swapp data file");
  SWAPP_REQUIRE(h.fields.size() >= 2, "malformed swapp header");
  const std::string kind = h.fields[0];
  if (kind != expected_kind) {
    throw InvalidArgument("expected a '" + expected_kind + "' file, found '" +
                          kind + "'");
  }
  const std::string version = h.fields[1];
  const std::string expected = "v" + std::to_string(expected_version);
  if (version != expected) {
    throw InvalidArgument("unsupported " + kind + " version " + version +
                          " (this build reads " + expected + ")");
  }
}

bool RecordReader::next(Record& out) {
  std::string line;
  while (std::getline(is_, line)) {
    if (line.empty() || line[0] == '#') continue;
    out = parse_line(line);
    return true;
  }
  return false;
}

}  // namespace swapp::io
