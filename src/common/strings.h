// Small string utilities shared by CSV parsing, SQL rendering and the
// benchmark table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fastqre {

/// \brief Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// \brief Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief Strips leading/trailing ASCII whitespace.
std::string_view TrimString(std::string_view s);

/// \brief True if `s` parses fully as a signed 64-bit integer.
[[nodiscard]] bool ParseInt64(std::string_view s, int64_t* out);

/// \brief True if `s` parses fully as a double.
[[nodiscard]] bool ParseDouble(std::string_view s, double* out);

/// \brief ASCII lowercasing.
std::string ToLower(std::string_view s);

/// \brief printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fastqre
