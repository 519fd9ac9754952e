#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse.h"

namespace whisk::util {

using ParamMap = std::map<std::string, std::string>;

// One declared parameter of a registered component (scenario, keep-alive
// policy, autoscaler, fault process, workflow shape) or resilience knob;
// surfaced by the unknown-key diagnostics and by `whisk_sweep --list`.
struct Param {
  std::string name;
  std::string default_value;  // display form, e.g. "60" or "experiment
                              // intensity"; the component resolves it
  std::string help;
  bool required = false;  // no usable default: the spec must set it
};

// What one registered component declares: its parameters, plus bits a
// subsystem wants cached with them (a fault's "fails nodes" flag, ...).
struct ParamSchema {
  std::vector<Param> params;
  unsigned flags = 0;
};

// Builds the schema of the canonical entry `canon`, usually from a probe
// constructed with an empty parameter set.
using SchemaSource = ParamSchema (*)(const std::string& canon);

// The schema `source` builds for `canon`, built once per process and
// cached (registrations are append-only, so an entry never goes stale).
// Thread-safe: campaign workers normalize specs concurrently. The returned
// reference stays valid for the life of the process.
[[nodiscard]] const ParamSchema& cached_schema(SchemaSource source,
                                               const std::string& canon);

// Lowercase the keys of `params`, rejecting a key set twice in any case
// mix and keys `canon`'s schema does not declare. `label` names the
// subsystem in diagnostics ("fault", "autoscaler", ...); `canon` is the
// entry's canonical name, empty for a params-only spec.
[[nodiscard]] ParamMap fold_params(std::string_view label,
                                   const std::string& canon,
                                   const ParamMap& params,
                                   SchemaSource schema);

// Typed reads of a folded parameter map with a fallback for absent keys.
// Unparsable values abort, naming `label` "`name`", the key and the value.
[[nodiscard]] bool param_has(const ParamMap& params, std::string_view key);
[[nodiscard]] double param_number(const ParamMap& params,
                                  std::string_view key, double fallback,
                                  std::string_view label,
                                  std::string_view name);
[[nodiscard]] std::size_t param_count(const ParamMap& params,
                                      std::string_view key,
                                      std::size_t fallback,
                                      std::string_view label,
                                      std::string_view name);
[[nodiscard]] std::string param_text(const ParamMap& params,
                                     std::string_view key,
                                     std::string_view fallback);

// Split "name[?key=value[&...]]" into a trimmed name and raw parameters.
// Aborts on a blank spec (suggesting `example`), an empty name or a
// malformed parameter list.
void parse_named(std::string_view label, std::string_view example,
                 std::string_view text, std::string* name, ParamMap* params);

// The params-only grammar: "none" or blank for no parameters, else
// key=value[&key=value]...; an empty map renders as "none".
[[nodiscard]] ParamMap parse_param_only(std::string_view label,
                                        std::string_view text);
[[nodiscard]] std::string param_only_to_string(const ParamMap& params);

// True when `name` is the reserved "none" in any case.
[[nodiscard]] bool is_none(std::string_view name);

// Aborts: the reserved "none" of `label` was given parameters.
[[noreturn]] void reject_none_params(
    std::string_view label, const std::vector<std::string>& registered);

// A registered component by name plus named parameters — the one
// "name[?key=value[&key=value]...]" spec shared by every subsystem:
//
//   auto spec = FaultSpec::parse("crash-restart?mtbf-s=120&mttr-s=15");
//   spec.to_string()  -> "crash-restart?mtbf-s=120&mttr-s=15"
//
// The name is trimmed; names and keys are case-insensitive; values are kept
// verbatim (they may be file paths). Parameters are stored sorted, so
// to_string() is canonical and parse(to_string()) round-trips exactly.
//
// `Kind` declares what differs per subsystem:
//   kLabel          the subsystem in diagnostics ("fault", ...)
//   kDefaultName    the name of a default-constructed spec
//   kExample        a spec quoted by the empty-spec diagnostic
//   kReservesNone   whether "none" means "off" (it then takes no
//                   parameters and never reaches the registry)
//   registry()      the FactoryRegistry names resolve against
//   schema(canon)   the declared parameters (a SchemaSource)
//   check(spec)     validates the values of a resolved, enabled spec
template <typename Kind>
struct NamedSpec {
  std::string name = std::string(Kind::kDefaultName);
  ParamMap params;

  [[nodiscard]] static NamedSpec parse(std::string_view text) {
    NamedSpec spec;
    parse_named(Kind::kLabel, Kind::kExample, text, &spec.name,
                &spec.params);
    return spec.normalized();
  }

  [[nodiscard]] std::string to_string() const {
    return render_params(name, params);
  }

  // The name canonicalized (aliases, case) and the keys folded and checked
  // against the schema; values are not validated. Aborts with a
  // name-listing error on an unknown name or key.
  [[nodiscard]] NamedSpec resolved() const {
    NamedSpec out;
    if constexpr (Kind::kReservesNone) {
      if (is_none(name)) {
        if (!params.empty()) {
          reject_none_params(Kind::kLabel, Kind::registry().names());
        }
        out.name = "none";
        return out;
      }
    }
    out.name = Kind::registry().resolve(name);
    out.params = fold_params(Kind::kLabel, out.name, params, &Kind::schema);
    return out;
  }

  // resolved() plus the subsystem's value check, so a bad value dies at
  // parse time, not mid-sweep.
  [[nodiscard]] NamedSpec normalized() const {
    NamedSpec out = resolved();
    if constexpr (Kind::kReservesNone) {
      if (out.name == "none") return out;
    }
    Kind::check(out);
    return out;
  }

  // False for the reserved "none".
  [[nodiscard]] bool enabled() const
    requires Kind::kReservesNone
  {
    return name != "none";
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return param_has(params, key);
  }
  [[nodiscard]] double number(std::string_view key, double fallback) const {
    return param_number(params, key, fallback, Kind::kLabel, name);
  }
  [[nodiscard]] std::size_t count(std::string_view key,
                                  std::size_t fallback) const {
    return param_count(params, key, fallback, Kind::kLabel, name);
  }
  // Verbatim string parameter; `fallback` when absent.
  [[nodiscard]] std::string text(std::string_view key,
                                 std::string_view fallback = {}) const {
    return param_text(params, key, fallback);
  }

  friend bool operator==(const NamedSpec&, const NamedSpec&) = default;
};

}  // namespace whisk::util
