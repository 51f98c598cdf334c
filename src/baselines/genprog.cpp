#include "baselines/genprog.hpp"

#include <algorithm>

namespace mwr::baselines {

namespace {

struct Variant {
  apr::Patch patch;
  std::uint32_t fitness = 0;
};

apr::Patch crossover(const apr::Patch& a, const apr::Patch& b,
                     util::RngStream& rng) {
  // One-point crossover on the edit lists: prefix of one parent, suffix of
  // the other, then canonicalized (duplicate edits collapse).
  apr::Patch child;
  const std::size_t cut_a = a.empty() ? 0 : rng.uniform_index(a.size() + 1);
  const std::size_t cut_b = b.empty() ? 0 : rng.uniform_index(b.size() + 1);
  child.insert(child.end(), a.begin(),
               a.begin() + static_cast<std::ptrdiff_t>(cut_a));
  child.insert(child.end(), b.begin() + static_cast<std::ptrdiff_t>(cut_b),
               b.end());
  apr::canonicalize(child);
  return child;
}

}  // namespace

SearchOutcome run_genprog(const apr::TestOracle& oracle,
                          const GenProgConfig& config) {
  util::RngStream rng(config.seed);
  const apr::ProgramModel& program = oracle.program();
  const std::uint64_t runs_at_start = oracle.suite_runs();

  SearchOutcome outcome;
  const auto budget_left = [&] {
    return oracle.suite_runs() - runs_at_start < config.max_suite_runs;
  };
  const auto evaluate = [&](Variant& v) -> bool {
    const apr::Evaluation e = oracle.evaluate(v.patch);
    v.fitness = e.fitness();
    if (e.is_repair()) {
      outcome.repaired = true;
      outcome.patch = v.patch;
    }
    return outcome.repaired;
  };

  // Initial population: single random edits (GenProg's seeding).
  std::vector<Variant> population(config.population);
  for (auto& v : population) {
    v.patch = {apr::random_mutation(program, rng)};
    if (!budget_left() || evaluate(v)) goto done;
  }

  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    // Tournament selection into the next generation.
    std::vector<Variant> next;
    next.reserve(config.population);
    while (next.size() < config.population) {
      const auto pick = [&]() -> const Variant& {
        const Variant* best = &population[rng.uniform_index(population.size())];
        for (std::size_t t = 1; t < config.tournament; ++t) {
          const Variant& challenger =
              population[rng.uniform_index(population.size())];
          if (challenger.fitness > best->fitness) best = &challenger;
        }
        return *best;
      };
      Variant child;
      if (rng.bernoulli(config.crossover_rate)) {
        // Named draws fix the order the two tournaments consume the
        // stream: the second parent is drawn first, on every compiler.
        const Variant& second = pick();
        const Variant& first = pick();
        child.patch = crossover(first.patch, second.patch, rng);
      } else {
        child.patch = pick().patch;
      }
      // Mutation: gain a fresh random edit and/or lose an existing one.
      if (rng.bernoulli(config.mutation_rate)) {
        child.patch.push_back(apr::random_mutation(program, rng));
        apr::canonicalize(child.patch);
      }
      if (!child.patch.empty() && rng.bernoulli(config.drop_rate)) {
        child.patch.erase(child.patch.begin() + static_cast<std::ptrdiff_t>(
                                                    rng.uniform_index(
                                                        child.patch.size())));
      }
      next.push_back(std::move(child));
    }
    for (auto& v : next) {
      if (!budget_left() || evaluate(v)) {
        population = std::move(next);
        goto done;
      }
    }
    population = std::move(next);
  }

done:
  outcome.suite_runs = oracle.suite_runs() - runs_at_start;
  outcome.latency_units = static_cast<double>(outcome.suite_runs);  // serial
  return outcome;
}

}  // namespace mwr::baselines
