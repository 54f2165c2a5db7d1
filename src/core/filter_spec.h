// Copyright (c) 2026 The plastream Authors. MIT license.
//
// FilterSpec: the string-configurable description of a filter. A spec names
// a filter family and carries the shared FilterOptions plus family-specific
// parameters, so deployments select filters by configuration string instead
// of by recompilation:
//
//   "slide"                              defaults, ε unset
//   "swing(eps=0.1)"                     scalar stream, ε = 0.1
//   "slide(eps=0.05,dims=3,max_lag=128)" uniform ε over 3 dimensions
//   "cache(eps=0.2:0.5,mode=midrange)"   per-dimension ε, family parameter
//
// Grammar: `family` or `family(key=value,...)`. The keys `eps`, `dims` and
// `max_lag` populate FilterOptions (`eps` takes a single value or a
// ':'-separated per-dimension list); every other key is kept verbatim in
// `params` for the family's factory to interpret (see filter_registry.h).
// Parse(Format(spec)) round-trips exactly for every spec Parse produces.
// Specs built programmatically keep that guarantee as long as param keys
// and values avoid the grammar's separators (',', '(', ')', '=') and the
// reserved keys eps/dims/max_lag — Format() emits params verbatim.

#ifndef PLASTREAM_CORE_FILTER_SPEC_H_
#define PLASTREAM_CORE_FILTER_SPEC_H_

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/filter.h"

namespace plastream {

/// Family name + FilterOptions + family-specific parameters.
struct FilterSpec {
  /// Filter family ("cache", "linear", "swing", "slide", "kalman", or a
  /// user-registered name).
  std::string family;

  /// The shared configuration (ε vector, max_lag). An empty epsilon means
  /// "unset": the spec names a family but the precision profile is supplied
  /// later (e.g. by RunFilter's options overload).
  FilterOptions options = {};

  /// Family-specific parameters, e.g. {"hull", "binary"} for a slide spec.
  /// Keys are sorted, which makes Format() deterministic.
  std::map<std::string, std::string, std::less<>> params = {};

  /// Parses a spec string. Errors with InvalidArgument on malformed syntax,
  /// bad numbers, duplicate keys, a `dims` that contradicts a per-dimension
  /// `eps` list, or ε values that fail ValidateFilterOptions.
  static Result<FilterSpec> Parse(std::string_view text);

  /// Canonical string form; Parse(Format()) reproduces this spec exactly.
  std::string Format() const;

  /// Short display name for tables and test case names: the family plus
  /// every param value, e.g. "slide-binary" for "slide(hull=binary)".
  /// Options (eps/dims/max_lag) do not contribute.
  std::string Label() const;

  /// The value of a family parameter, or nullptr when absent.
  const std::string* FindParam(std::string_view key) const;

  /// Errors with InvalidArgument when `params` contains a key outside
  /// `allowed` — factories call this to reject typos like "hul=binary".
  Status ExpectParamsIn(
      std::initializer_list<std::string_view> allowed) const;

  /// Field-wise equality.
  bool operator==(const FilterSpec&) const = default;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_FILTER_SPEC_H_
