#ifndef PRESERIAL_COMMON_STRINGS_H_
#define PRESERIAL_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace preserial {

// Minimal string helpers used across modules; kept deliberately small.

// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Fixed-width left/right padding with spaces (for table rendering in the
// benchmark harnesses).
std::string PadLeft(std::string_view s, size_t width);
std::string PadRight(std::string_view s, size_t width);

}  // namespace preserial

#endif  // PRESERIAL_COMMON_STRINGS_H_
