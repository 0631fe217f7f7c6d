// Small string formatting helpers used across the codebase.
#ifndef GODIVA_COMMON_STRINGS_H_
#define GODIVA_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace godiva {

namespace strings_internal {

// Appends `value` to `out` as a default-formatted std::ostream would print
// it: strings as they are, char types as characters, bool as 1 or 0,
// integers in decimal, floating point as "%g" with 6 significant digits.
// Any other type goes through its operator<<.
template <typename T>
void AppendPiece(std::string* out, const T& value) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(value));
  } else if constexpr (std::is_same_v<T, bool>) {
    out->push_back(value ? '1' : '0');
  } else if constexpr (std::is_same_v<T, char> ||
                       std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out->push_back(static_cast<char>(value));
  } else if constexpr (std::is_integral_v<T>) {
    char buffer[24];
    const std::to_chars_result printed =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out->append(buffer, printed.ptr);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buffer[32];
    const std::to_chars_result printed =
        std::to_chars(buffer, buffer + sizeof(buffer), value,
                      std::chars_format::general, 6);
    out->append(buffer, printed.ptr);
  } else {
    std::ostringstream os;
    os << value;
    out->append(os.str());
  }
}

}  // namespace strings_internal

// Concatenates the string representations of all arguments, each printed
// as `std::ostream << arg` would print it.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::AppendPiece(&out, args), ...);
  return out;
}

// Joins `parts` with `separator`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// "1.5 KiB", "384.0 MiB", ...
std::string FormatBytes(int64_t bytes);

// "12.3 ms", "4.56 s", ...
std::string FormatSeconds(double seconds);

// True iff `s` starts with / ends with the given affix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// True iff `text` matches `glob` ('*' any run, '?' one char). Used by the
// fault plan's path patterns and Gbo watch patterns.
bool GlobMatch(std::string_view glob, std::string_view text);

}  // namespace godiva

#endif  // GODIVA_COMMON_STRINGS_H_
