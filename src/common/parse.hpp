#pragma once

#include <cmath>
#include <exception>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/status.hpp"

namespace ks {

/// Parses one number from external input (a ksim argument, a trace field).
/// All of `text` must be the number. NaN, infinities and values outside
/// [min, max] fail with kInvalidArgument, and so does a fractional value
/// when T is an integer type. The cast to T happens only after the range
/// check, so it is always defined. Errors name the value as `what`.
template <typename T>
Expected<T> ParseNumber(const std::string& text, const std::string& what,
                        T min, T max) {
  static_assert(std::is_arithmetic_v<T>);
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  const bool whole = !std::is_integral_v<T> || value == std::trunc(value);
  if (used == 0 || used != text.size() || !std::isfinite(value) ||
      value < static_cast<double>(min) || value > static_cast<double>(max) ||
      !whole) {
    std::ostringstream msg;
    msg << what << "='" << text << "' must be a "
        << (std::is_integral_v<T> ? "whole number" : "number") << " in ["
        << min << ", " << max << "]";
    return InvalidArgumentError(msg.str());
  }
  return static_cast<T>(value);
}

}  // namespace ks
