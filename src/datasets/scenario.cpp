#include "datasets/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fnv.hpp"

namespace mwr::datasets {

double pass_probability(double x, double interference) {
  if (x <= 1.0) return 1.0;
  const double pairs = x * (x - 1.0) / 2.0;
  return std::exp(-interference * pairs);
}

double repair_density(double x, double repair_rate, double interference) {
  if (x < 1.0) return 0.0;
  const double saturation = 1.0 - std::pow(1.0 - repair_rate, x);
  return saturation * pass_probability(x, interference);
}

std::size_t repair_optimum(double repair_rate, double interference,
                           std::size_t x_max) {
  std::size_t best_x = 1;
  double best = repair_density(1.0, repair_rate, interference);
  for (std::size_t x = 2; x <= x_max; ++x) {
    const double d =
        repair_density(static_cast<double>(x), repair_rate, interference);
    if (d > best) {
      best = d;
      best_x = x;
    }
  }
  return best_x;
}

double calibrate_interference(double repair_rate, std::size_t target_optimum) {
  if (target_optimum == 0)
    throw std::invalid_argument("calibrate_interference: optimum must be >= 1");
  // The mode moves left as q grows; bisect q over a generous bracket.
  double lo = 1e-9;
  double hi = 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = std::sqrt(lo * hi);  // geometric: q spans decades
    const std::size_t mode =
        repair_optimum(repair_rate, mid, 8 * target_optimum + 64);
    if (mode > target_optimum) {
      lo = mid;
    } else if (mode < target_optimum) {
      hi = mid;
    } else {
      return mid;
    }
  }
  return std::sqrt(lo * hi);
}

double ScenarioSpec::interference() const {
  return calibrate_interference(repair_rate, optimum);
}

std::size_t ScenarioSpec::count_for_option(std::size_t option) const {
  // Counts span [1, max(4 * optimum, k)]: the unimodal support, widened so
  // large instances give each option a distinct count.
  const std::size_t span = std::max<std::size_t>(4 * optimum, options);
  if (options == 1) return 1;
  const double t =
      static_cast<double>(option) / static_cast<double>(options - 1);
  return 1 + static_cast<std::size_t>(
                 std::lround(t * static_cast<double>(span - 1)));
}

std::uint64_t ScenarioSpec::fingerprint() const noexcept {
  using util::fnv_fold;
  using util::fnv_fold_double;
  const auto fold_string = [](std::uint64_t h, const std::string& s) {
    return util::fnv_fold_bytes(fnv_fold(h, s.size()), s);
  };
  std::uint64_t h = util::kFnvOffset;
  h = fold_string(h, name);
  h = fold_string(h, language);
  h = fnv_fold(h, options);
  h = fnv_fold(h, statements);
  h = fnv_fold(h, tests);
  h = fnv_fold_double(h, coverage);
  h = fnv_fold_double(h, safe_rate);
  h = fnv_fold_double(h, repair_rate);
  h = fnv_fold(h, optimum);
  h = fnv_fold(h, min_repair_edits);
  h = fnv_fold_double(h, value_noise);
  h = fnv_fold(h, seed);
  h = fnv_fold(h, bug_id);
  h = fnv_fold(h, relevance_localized ? 1u : 0u);
  return h;
}

core::OptionSet ScenarioSpec::option_set() const {
  const double q = interference();
  util::RngStream rng(seed ^ 0xabcdef12345ULL);
  std::vector<double> values(options);
  double peak = 0.0;
  for (std::size_t i = 0; i < options; ++i) {
    const auto x = static_cast<double>(count_for_option(i));
    values[i] = repair_density(x, repair_rate, q);
    peak = std::max(peak, values[i]);
  }
  constexpr double kFloor = 0.05;
  constexpr double kCeil = 0.95;
  for (auto& v : values) {
    v = kFloor + (kCeil - kFloor) * v / std::max(peak, 1e-300);
    v += value_noise * (rng.uniform() - 0.5);
    v = std::clamp(v, 0.0, 1.0);
  }
  return core::OptionSet(name, std::move(values));
}

std::vector<ScenarioSpec> c_scenarios() {
  std::vector<ScenarioSpec> specs;
  // Calibration targets follow §III-B/§IV-A: per-scenario optima fall in the
  // paper's observed 11..271 range, gzip's at 48 (Fig 4b); sizes match the
  // "Size" column of Tables II-IV.  lighttpd's low repair rate and libtiff's
  // two-edit repair reproduce the §IV-G baseline failures.
  specs.push_back({.name = "units",
                   .language = "C",
                   .options = 1000,
                   .statements = 500,
                   .tests = 6,
                   .coverage = 0.8,
                   .safe_rate = 0.55,
                   .repair_rate = 0.05,
                   .optimum = 23,
                   .min_repair_edits = 1,
                   .value_noise = 0.02,
                   .seed = 101});
  specs.push_back({.name = "gzip-2009-08-16",
                   .language = "C",
                   .options = 5000,
                   .statements = 6000,
                   .tests = 12,
                   .coverage = 0.55,
                   .safe_rate = 0.55,
                   .repair_rate = 0.03,
                   .optimum = 48,
                   .min_repair_edits = 1,
                   .value_noise = 0.02,
                   .seed = 102});
  specs.push_back({.name = "gzip-2009-09-26",
                   .language = "C",
                   .options = 2000,
                   .statements = 6000,
                   .tests = 12,
                   .coverage = 0.55,
                   .safe_rate = 0.55,
                   .repair_rate = 0.035,
                   .optimum = 44,
                   .min_repair_edits = 1,
                   .value_noise = 0.02,
                   .seed = 103});
  specs.push_back({.name = "libtiff-2005-12-14",
                   .language = "C",
                   .options = 100,
                   .statements = 8000,
                   .tests = 30,
                   .coverage = 0.45,
                   .safe_rate = 0.5,
                   .repair_rate = 0.008,
                   .optimum = 11,
                   .min_repair_edits = 2,  // multi-edit bug: single-edit
                                           // tools cannot repair it (§IV-G)
                   .value_noise = 0.03,
                   .seed = 104});
  specs.push_back({.name = "lighttpd-1806-1807",
                   .language = "C",
                   .options = 50,
                   .statements = 4000,
                   .tests = 15,
                   .coverage = 0.5,
                   .safe_rate = 0.5,
                   .repair_rate = 0.00015,  // sparse repairs: naive random
                                            // search exhausts its budget;
                                            // MWRepair reaches them through
                                            // its large amortized pool
                   .optimum = 14,
                   .min_repair_edits = 1,
                   .value_noise = 0.03,
                   .seed = 128});
  return specs;
}

std::vector<ScenarioSpec> java_scenarios() {
  // All five Java scenarios share k = 100 but differ in the distribution of
  // values over the options (§IV-A), i.e. in mode, sparsity, and jitter.
  std::vector<ScenarioSpec> specs;
  specs.push_back({.name = "Chart26",
                   .language = "Java",
                   .options = 100,
                   .statements = 3000,
                   .tests = 25,
                   .coverage = 0.6,
                   .safe_rate = 0.6,
                   .repair_rate = 0.03,
                   .optimum = 60,
                   .min_repair_edits = 1,
                   .value_noise = 0.01,
                   .seed = 201});
  specs.push_back({.name = "Closure13",
                   .language = "Java",
                   .options = 100,
                   .statements = 12000,
                   .tests = 40,
                   .coverage = 0.4,
                   .safe_rate = 0.5,
                   .repair_rate = 0.002,
                   .optimum = 35,
                   .min_repair_edits = 2,  // multi-edit Defects4J bug
                   .value_noise = 0.03,
                   .seed = 202});
  specs.push_back({.name = "Closure22",
                   .language = "Java",
                   .options = 100,
                   .statements = 12000,
                   .tests = 40,
                   .coverage = 0.4,
                   .safe_rate = 0.5,
                   .repair_rate = 0.01,
                   .optimum = 90,
                   .min_repair_edits = 1,
                   .value_noise = 0.02,
                   .seed = 203});
  specs.push_back({.name = "Math8",
                   .language = "Java",
                   .options = 100,
                   .statements = 5000,
                   .tests = 30,
                   .coverage = 0.65,
                   .safe_rate = 0.6,
                   .repair_rate = 0.04,
                   .optimum = 22,
                   .min_repair_edits = 1,
                   .value_noise = 0.015,
                   .seed = 204});
  specs.push_back({.name = "Math80",
                   .language = "Java",
                   .options = 100,
                   .statements = 5000,
                   .tests = 30,
                   .coverage = 0.65,
                   .safe_rate = 0.6,
                   .repair_rate = 0.008,
                   .optimum = 130,
                   .min_repair_edits = 1,
                   .value_noise = 0.01,
                   .seed = 205});
  return specs;
}

ScenarioSpec scenario_by_name(const std::string& name) {
  for (const auto& spec : c_scenarios()) {
    if (spec.name == name) return spec;
  }
  for (const auto& spec : java_scenarios()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown scenario: " + name);
}

}  // namespace mwr::datasets
