#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/registry.h"

namespace whisk::util {

// ASCII space/tab trim shared by the spec parsers (registry keys and spec
// grammar must not depend on the locale).
[[nodiscard]] inline std::string_view trim_ws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Split on any of the characters in `seps`, keeping empty segments (the
// caller decides whether to tolerate them). Shared by the spec grammars,
// several of which accept a canonical separator plus a grid-safe alias.
[[nodiscard]] inline std::vector<std::string_view> split_any(
    std::string_view text, std::string_view seps) {
  std::vector<std::string_view> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find_first_of(seps, begin);
    out.push_back(text.substr(
        begin, (end == std::string_view::npos ? text.size() : end) - begin));
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
  return out;
}

// The `key=value[&key=value]...` tail of the "name[?params]" spec idiom
// (util::NamedSpec and ClusterSpec groups). Keys are lowercased; values kept verbatim. Aborts — prefixing
// `context` — on a piece that is not key=value or a key set twice.
inline void parse_param_list(std::string_view text,
                             const std::string& context,
                             std::map<std::string, std::string>* out) {
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view piece = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = piece.find('=');
    if (piece.empty() || eq == 0 || eq == std::string_view::npos) {
      WHISK_CHECK(false, (context + ": parameter \"" + std::string(piece) +
                          "\" is not key=value")
                             .c_str());
    }
    const std::string key = ascii_lower(piece.substr(0, eq));
    WHISK_CHECK(out->count(key) == 0,
                (context + " sets parameter \"" + key + "\" twice").c_str());
    (*out)[key] = std::string(piece.substr(eq + 1));
  }
}

// Strict numeric field parsing shared by the spec / trace / weights
// surfaces. "Strict" means: the whole field must be consumed (no trailing
// garbage, no embedded whitespace the C parsers would skip) and the value
// must be finite — "inf" rates would spin arrival generators forever.
[[nodiscard]] inline bool parse_finite_double(std::string_view field,
                                              double* out) {
  if (field.empty() || field.front() == ' ' || field.front() == '\t') {
    return false;
  }
  const std::string s(field);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// Digits-only whole number: no sign, no whitespace, no exponent; rejects
// fields that overflow unsigned long long (strtoull's ERANGE clamp would
// otherwise turn "9...9" into ULLONG_MAX silently).
[[nodiscard]] inline bool parse_whole_number(std::string_view field,
                                             unsigned long long* out) {
  if (field.empty()) return false;
  for (const char c : field) {
    if (c < '0' || c > '9') return false;
  }
  const std::string s(field);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = value;
  return true;
}

// Render half of the "name[?key=value&...]" spec idiom: append the sorted
// parameter map to `head`. Inverse of parse_param_list, shared so the
// round-trip grammar lives in one place.
[[nodiscard]] inline std::string render_params(
    std::string head, const std::map<std::string, std::string>& params) {
  char sep = '?';
  for (const auto& [key, value] : params) {
    head += sep;
    head += key;
    head += '=';
    head += value;
    sep = '&';
  }
  return head;
}

}  // namespace whisk::util
