#include "server/options.h"

#include <algorithm>
#include <cctype>
#include <exception>

#include "support/error.h"

namespace swapp::server {

namespace {

/// Digits-only decimal parse; -1 for anything else (including overflow).
long long parse_positive_decimal(const std::string& digits) {
  const bool all_digits =
      !digits.empty() &&
      std::all_of(digits.begin(), digits.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (!all_digits) return -1;
  try {
    return std::stoll(digits);
  } catch (const std::exception&) {
    return -1;  // out of range
  }
}

}  // namespace

std::size_t parse_queue_depth(const std::string& value) {
  const long long v = parse_positive_decimal(value);
  SWAPP_REQUIRE(v >= 1,
                "--max-queue must be a positive integer, got '" + value + "'");
  return static_cast<std::size_t>(v);
}

std::chrono::milliseconds parse_coalesce_window(const std::string& value) {
  const long long v = parse_positive_decimal(value);
  SWAPP_REQUIRE(v >= 0,
                "--coalesce-window must be a non-negative integer number of "
                "milliseconds, got '" +
                    value + "'");
  return std::chrono::milliseconds(v);
}

std::uintmax_t parse_byte_size(const std::string& value) {
  std::string digits = value;
  std::uintmax_t scale = 1;
  if (!digits.empty()) {
    switch (std::tolower(static_cast<unsigned char>(digits.back()))) {
      case 'k': scale = 1024ull; break;
      case 'm': scale = 1024ull * 1024; break;
      case 'g': scale = 1024ull * 1024 * 1024; break;
      default: scale = 1; break;
    }
    if (scale != 1) digits.pop_back();
  }
  const long long v = parse_positive_decimal(digits);
  SWAPP_REQUIRE(v >= 1,
                "byte size must be a positive integer with an optional "
                "k/m/g suffix, got '" +
                    value + "'");
  const std::uintmax_t bytes = static_cast<std::uintmax_t>(v);
  SWAPP_REQUIRE(bytes <= UINTMAX_MAX / scale,
                "byte size overflows, got '" + value + "'");
  return bytes * scale;
}

unsigned parse_watch_seconds(const std::string& value) {
  const long long v = parse_positive_decimal(value);
  SWAPP_REQUIRE(v >= 1 && v <= 86400,
                "--watch must be a positive integer number of seconds, "
                "got '" +
                    value + "'");
  return static_cast<unsigned>(v);
}

std::filesystem::path parse_socket_path(const std::string& value) {
  SWAPP_REQUIRE(!value.empty(), "--socket path must not be empty");
  SWAPP_REQUIRE(value.size() <= kMaxSocketPath,
                "--socket path exceeds the " +
                    std::to_string(kMaxSocketPath) +
                    "-byte sockaddr_un limit, got '" + value + "'");
  return value;
}

}  // namespace swapp::server
