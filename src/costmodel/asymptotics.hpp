// Table I of the paper: the asymptotic properties of the three MWU
// realizations, expressed uniformly in the same variables —
//   k       number of options
//   n       number of nodes (agents)
//   eps     error tolerance (Standard/Slate; depends on eta)
//   delta   ln(beta / (1 - beta)), beta = attention to the latest
//           observation (Distributed)
//
//               Standard        Distributed               Slate
//   comm        O(n)            O(ln n / ln ln n) *       O(n)
//   memory      O(k)            O(1)                      O(k)
//   convergence O(ln k / eps^2) O(ln k / delta)           O(k ln k / eps^2)
//   min agents  O(n)            O(k^(1/delta)) *          O(n)
//   (* holds with probability at least 1 - 1/n)
//
// Besides the symbolic forms (for the Table I bench), numeric evaluators
// let the weighted cost model of §IV-E compare algorithms at concrete
// (k, n) operating points.
#pragma once

#include <cstddef>
#include <string>

#include "core/mwu.hpp"

namespace mwr::costmodel {

/// The four rows of Table I.
enum class Property { kCommunication, kMemory, kConvergence, kMinAgents };

[[nodiscard]] std::string to_string(Property property);

/// The symbolic big-O cell of Table I for (algorithm, property).  A
/// trailing '*' marks a bound that holds with high probability.
[[nodiscard]] std::string symbolic(core::MwuKind kind, Property property);

/// Concrete operating point for numeric evaluation.
struct OperatingPoint {
  std::size_t options = 100;   ///< k
  std::size_t agents = 64;     ///< n
  double epsilon = 0.05;       ///< Standard/Slate error tolerance
  double beta = 0.75;          ///< Distributed attention parameter
};

/// delta = ln(beta / (1 - beta)).
[[nodiscard]] double delta_of(double beta);

/// Numeric value of the Table I bound at the operating point (the
/// asymptotic expression evaluated with constant 1).
[[nodiscard]] double evaluate(core::MwuKind kind, Property property,
                              const OperatingPoint& point);

}  // namespace mwr::costmodel
