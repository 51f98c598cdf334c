#include "costmodel/asymptotics.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/congestion.hpp"

namespace mwr::costmodel {

std::string to_string(Property property) {
  switch (property) {
    case Property::kCommunication:
      return "Communication Cost";
    case Property::kMemory:
      return "Memory Overhead";
    case Property::kConvergence:
      return "Convergence Time";
    case Property::kMinAgents:
      return "Minimum Agents";
  }
  return "?";
}

std::string symbolic(core::MwuKind kind, Property property) {
  using core::MwuKind;
  switch (property) {
    case Property::kCommunication:
      return kind == MwuKind::kDistributed ? "O(ln n / ln ln n)*" : "O(n)";
    case Property::kMemory:
      return kind == MwuKind::kDistributed ? "O(1)" : "O(k)";
    case Property::kConvergence:
      switch (kind) {
        case MwuKind::kStandard:
          return "O(ln k / eps^2)";
        case MwuKind::kDistributed:
          return "O(ln k / delta)";
        case MwuKind::kSlate:
        case MwuKind::kExp3:  // adversarial regret pays the extra factor of k
          return "O(k ln k / eps^2)";
      }
      break;
    case Property::kMinAgents:
      return kind == core::MwuKind::kDistributed ? "O(k^(1/delta))*" : "O(n)";
  }
  return "?";
}

double delta_of(double beta) {
  if (beta <= 0.5 || beta >= 1.0)
    throw std::invalid_argument("delta_of: beta must be in (1/2, 1)");
  return std::log(beta / (1.0 - beta));
}

double evaluate(core::MwuKind kind, Property property,
                const OperatingPoint& point) {
  using core::MwuKind;
  const auto k = static_cast<double>(point.options);
  const auto n = static_cast<double>(point.agents);
  const double eps2 = point.epsilon * point.epsilon;
  const double delta = delta_of(point.beta);
  switch (property) {
    case Property::kCommunication:
      return kind == MwuKind::kDistributed
                 ? parallel::balls_into_bins_bound(point.agents)
                 : n;
    case Property::kMemory:
      return kind == MwuKind::kDistributed ? 1.0 : k;
    case Property::kConvergence:
      switch (kind) {
        case MwuKind::kStandard:
          return std::log(k) / eps2;
        case MwuKind::kDistributed:
          return std::log(k) / delta;
        case MwuKind::kSlate:
        case MwuKind::kExp3:
          return k * std::log(k) / eps2;
      }
      break;
    case Property::kMinAgents:
      return kind == MwuKind::kDistributed ? std::pow(k, 1.0 / delta) : n;
  }
  throw std::invalid_argument("evaluate: unknown property");
}

}  // namespace mwr::costmodel
