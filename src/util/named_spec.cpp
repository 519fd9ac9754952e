#include "util/named_spec.h"

#include <mutex>

#include "util/check.h"

namespace whisk::util {
namespace {

// "fault \"flap\"" for a named spec, the bare label for a params-only one.
std::string owner(std::string_view label, std::string_view name) {
  std::string out(label);
  if (!name.empty()) {
    out += " \"";
    out += name;
    out += '"';
  }
  return out;
}

}  // namespace

const ParamSchema& cached_schema(SchemaSource source,
                                 const std::string& canon) {
  // Leaked on purpose: specs are normalized from worker threads that may
  // outlive static destruction order. std::map nodes have stable
  // addresses, so the returned reference outlives the lock safely.
  static auto* mutex = new std::mutex();
  static auto* cache =
      new std::map<SchemaSource, std::map<std::string, ParamSchema>>();
  std::lock_guard<std::mutex> lock(*mutex);
  auto& per_source = (*cache)[source];
  auto it = per_source.find(canon);
  if (it == per_source.end()) {
    it = per_source.emplace(canon, source(canon)).first;
  }
  return it->second;
}

ParamMap fold_params(std::string_view label, const std::string& canon,
                     const ParamMap& params, SchemaSource schema) {
  ParamMap out;
  for (const auto& [raw_key, value] : params) {
    const std::string key = ascii_lower(raw_key);
    WHISK_CHECK(out.count(key) == 0, (owner(label, canon) +
                                      " sets parameter \"" + key +
                                      "\" twice")
                                         .c_str());
    out.emplace(key, value);
  }
  if (out.empty()) return out;
  const auto& valid = cached_schema(schema, canon).params;
  for (const auto& entry : out) {
    const std::string& key = entry.first;
    bool known = false;
    for (const auto& p : valid) {
      if (p.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::vector<std::string> names;
      names.reserve(valid.size());
      for (const auto& p : valid) names.push_back(p.name);
      WHISK_CHECK(false, (owner(label, canon) +
                          " does not take parameter \"" + key +
                          "\"; valid parameters: " +
                          (names.empty() ? "(none)" : join(names)))
                             .c_str());
    }
  }
  return out;
}

bool param_has(const ParamMap& params, std::string_view key) {
  return params.count(ascii_lower(key)) != 0;
}

double param_number(const ParamMap& params, std::string_view key,
                    double fallback, std::string_view label,
                    std::string_view name) {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) return fallback;
  double value = 0.0;
  if (!parse_finite_double(it->second, &value)) {
    WHISK_CHECK(false, (owner(label, name) + " parameter " +
                        std::string(key) + "=\"" + it->second +
                        "\" is not a finite number")
                           .c_str());
  }
  return value;
}

std::size_t param_count(const ParamMap& params, std::string_view key,
                        std::size_t fallback, std::string_view label,
                        std::string_view name) {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) return fallback;
  unsigned long long value = 0;
  if (!parse_whole_number(it->second, &value)) {
    WHISK_CHECK(false, (owner(label, name) + " parameter " +
                        std::string(key) + "=\"" + it->second +
                        "\" is not a whole number >= 0")
                           .c_str());
  }
  return static_cast<std::size_t>(value);
}

std::string param_text(const ParamMap& params, std::string_view key,
                       std::string_view fallback) {
  const auto it = params.find(ascii_lower(key));
  return it == params.end() ? std::string(fallback) : it->second;
}

void parse_named(std::string_view label, std::string_view example,
                 std::string_view text, std::string* name,
                 ParamMap* params) {
  WHISK_CHECK(!trim_ws(text).empty(),
              ("empty " + std::string(label) +
               " spec; expected \"name[?key=value[&...]]\" like \"" +
               std::string(example) + "\"")
                  .c_str());
  const std::size_t q = text.find('?');
  *name = std::string(trim_ws(text.substr(0, q)));
  WHISK_CHECK(!name->empty(), (std::string(label) + " spec \"" +
                               std::string(text) +
                               "\" has an empty name before the '?'")
                                  .c_str());
  params->clear();
  if (q != std::string_view::npos) {
    parse_param_list(text.substr(q + 1),
                     std::string(label) + " spec \"" + std::string(text) +
                         "\"",
                     params);
  }
}

ParamMap parse_param_only(std::string_view label, std::string_view text) {
  ParamMap params;
  const std::string_view trimmed = trim_ws(text);
  if (!trimmed.empty() && !is_none(trimmed)) {
    parse_param_list(trimmed,
                     std::string(label) + " \"" + std::string(text) + "\"",
                     &params);
  }
  return params;
}

std::string param_only_to_string(const ParamMap& params) {
  if (params.empty()) return "none";
  return render_params("", params).substr(1);  // drop the leading '?'
}

bool is_none(std::string_view name) {
  return name.size() == 4 && ascii_lower(name) == "none";
}

void reject_none_params(std::string_view label,
                        const std::vector<std::string>& registered) {
  WHISK_CHECK(false, (std::string(label) +
                      " \"none\" takes no parameters; name a registered " +
                      std::string(label) + " (" + join(registered) +
                      ") to configure one")
                         .c_str());
  std::abort();
}

}  // namespace whisk::util
