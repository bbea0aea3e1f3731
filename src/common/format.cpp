#include "common/format.hpp"

#include <system_error>

#include "common/error.hpp"

namespace rfid {

namespace {
constexpr int kMaxPrecision = 64;  // bounds the stack buffer below
}  // namespace

void append_double(std::string& out, double value, int precision,
                   FloatFormat format) {
  RFID_EXPECTS(precision >= 0 && precision <= kMaxPrecision);
  // Worst case is fixed notation of DBL_MAX: a sign, 309 integer digits,
  // the point and `precision` fraction digits.
  char buf[320 + kMaxPrecision];
  const std::chars_format chars = format == FloatFormat::kFixed
                                      ? std::chars_format::fixed
                                      : std::chars_format::general;
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, value, chars, precision);
  RFID_ENSURES(ec == std::errc{});
  out.append(buf, end);
}

std::string format_double(double value, int precision, FloatFormat format) {
  std::string out;
  append_double(out, value, precision, format);
  return out;
}

}  // namespace rfid
