// Flag parsing for `swapp serve`, in the parse_thread_count mould: every
// parser accepts exactly the documented grammar and throws InvalidArgument
// with the offending text quoted for anything else — a daemon that silently
// coerces "0" or "10x" into a default serves wrong limits for its whole
// lifetime.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

namespace swapp::server {

/// Admission-queue depth: a positive decimal integer with no trailing
/// characters.
std::size_t parse_queue_depth(const std::string& value);

/// Coalesce window in milliseconds: a non-negative decimal integer with no
/// trailing characters ("0" — the default — keeps the eager drain).
std::chrono::milliseconds parse_coalesce_window(const std::string& value);

/// Byte size: a positive decimal integer, optionally suffixed with k, m, or
/// g (case-insensitive, powers of 1024).  "64k" -> 65536.
std::uintmax_t parse_byte_size(const std::string& value);

/// Unix-domain socket path: non-empty and short enough for sockaddr_un
/// (kMaxSocketPath bytes).  Returns the path unchanged.
inline constexpr std::size_t kMaxSocketPath = 107;
std::filesystem::path parse_socket_path(const std::string& value);

/// `swapp stats --watch` interval: a positive decimal integer number of
/// seconds.
unsigned parse_watch_seconds(const std::string& value);

}  // namespace swapp::server
