// Locale-free number formatting: the one path every JSON writer, trace
// sink and ASCII table in the repo uses to turn a number into text.
//
// Built on <charconv>: no iostream, no locale lookup, and no heap traffic
// beyond the caller's buffer, so a warm append into a reused std::string
// allocates nothing. The output is exactly what printf prints in the "C"
// locale for the matching conversion ("%.*g", "%.*f", "%llu"), including
// "inf", "-inf", "nan", "-nan" and "-0" — the bytes the JSON and CSV
// surfaces are pinned to.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>

namespace rfid {

enum class FloatFormat : std::uint8_t {
  kGeneral,  ///< printf "%.*g": `precision` significant digits
  kFixed,    ///< printf "%.*f": `precision` digits after the point
};

/// Appends `value` as printf("%.*g" or "%.*f", precision, value) would.
/// Precondition: 0 <= precision <= 64.
void append_double(std::string& out, double value, int precision,
                   FloatFormat format = FloatFormat::kGeneral);

/// append_double() into a fresh string.
[[nodiscard]] std::string format_double(
    double value, int precision, FloatFormat format = FloatFormat::kGeneral);

/// Appends `value` in decimal.
template <std::integral T>
void append_int(std::string& out, T value) {
  char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace rfid
