#include "selfheal/sim/workload.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace selfheal::sim {

WorkloadGenerator::WorkloadGenerator(wfspec::ObjectCatalog& catalog,
                                     WorkloadConfig config)
    : catalog_(&catalog), config_(config) {}

wfspec::WorkflowSpec WorkloadGenerator::generate(const std::string& name,
                                                 util::Rng& rng) {
  const auto n = static_cast<std::size_t>(
      rng.between(static_cast<std::int64_t>(config_.min_tasks),
                  static_cast<std::int64_t>(config_.max_tasks)));

  // --- Structure: task 0 is the start; every other task hangs off a
  // random earlier parent, so the graph is connected with a unique
  // source. Extra successors (second child) make branch nodes. The last
  // task never gets successors, so a sink always exists.
  std::vector<std::vector<std::size_t>> children(n);
  std::vector<std::vector<std::size_t>> parents(n);
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<std::size_t>(rng.below(i));
    children[parent].push_back(i);
    parents[i].push_back(parent);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!rng.chance(config_.branch_prob)) continue;
    const auto j = i + 1 + static_cast<std::size_t>(rng.below(n - 1 - i));
    if (std::find(children[i].begin(), children[i].end(), j) != children[i].end()) {
      continue;
    }
    children[i].push_back(j);
    parents[j].push_back(i);
  }

  // Optionally close one loop: back edge from a branch-capable node j to
  // one of its proper tree ancestors (path i -> ... -> j exists by
  // construction, so this is a real cycle).
  std::size_t loop_tail = 0;  // 0 = no loop (node 0 can never be a tail)
  if (n >= 4 && rng.chance(config_.loop_prob)) {
    const auto j = 2 + static_cast<std::size_t>(rng.below(n - 3));  // not the sink
    if (!children[j].empty()) {
      std::vector<std::size_t> ancestors;
      for (std::size_t node = parents[j][0]; node != 0; node = parents[node][0]) {
        ancestors.push_back(node);
      }
      if (!ancestors.empty()) {
        const auto i = ancestors[rng.index_into(ancestors)];
        children[j].push_back(i);
        parents[i].push_back(j);
        loop_tail = j;
      }
    }
  }

  auto shared_object = [&]() {
    return "shared_" + std::to_string(rng.below(kSharedPoolSize));
  };

  // --- Write sets.
  std::vector<std::vector<std::string>> writes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto count = 1 + rng.below(kMaxWrites);
    std::set<std::string> ws;
    for (std::size_t k = 0; k < count; ++k) {
      if (rng.chance(config_.shared_object_prob)) {
        ws.insert(shared_object());
      } else {
        ws.insert(name + "_o" + std::to_string(i) + "_" + std::to_string(k));
      }
    }
    writes[i].assign(ws.begin(), ws.end());
  }

  // --- Read sets: favour predecessors' writes so flow dependences (and
  // data-driven branch decisions) actually arise.
  std::vector<std::vector<std::string>> reads(n);
  std::vector<std::string> selector(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::string> rs;
    if (i > 0) {
      const auto count = 1 + rng.below(kMaxReads);
      // The selector read: a parent's write. The loop tail must select
      // on its TREE parent's write -- the loop body rewrites it every
      // lap, so the loop exit re-rolls per incarnation.
      const auto parent =
          i == loop_tail ? parents[i][0] : parents[i][rng.index_into(parents[i])];
      const auto& parent_writes = writes[parent];
      selector[i] = parent_writes[rng.index_into(parent_writes)];
      rs.insert(selector[i]);
      while (rs.size() < count) {
        if (rng.chance(config_.shared_object_prob)) {
          rs.insert(shared_object());
        } else {
          const auto j = static_cast<std::size_t>(rng.below(i));
          rs.insert(writes[j][rng.index_into(writes[j])]);
        }
      }
    }
    if (children[i].size() > 1 && rs.empty()) {
      selector[i] = shared_object();  // a branch needs a selector
      rs.insert(selector[i]);
    }
    reads[i].assign(rs.begin(), rs.end());
  }

  // --- Materialise the spec.
  wfspec::WorkflowSpec spec(name, *catalog_);
  std::vector<wfspec::TaskId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = spec.add_task(name + "_t" + std::to_string(i), reads[i], writes[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto j : children[i]) spec.add_edge(ids[i], ids[j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (children[i].size() > 1 && !selector[i].empty()) {
      spec.set_selector(ids[i], selector[i]);
    }
  }
  spec.validate();
  return spec;
}

AttackScenario make_attack_scenario(std::uint64_t seed, std::size_t n_workflows,
                                    std::size_t n_attacks, WorkloadConfig config,
                                    engine::EngineConfig engine_config,
                                    engine::FaultInjector fault_injector) {
  AttackScenario scenario;
  scenario.catalog = std::make_unique<wfspec::ObjectCatalog>();
  util::Rng rng(seed);
  WorkloadGenerator generator(*scenario.catalog, config);

  for (std::size_t w = 0; w < n_workflows; ++w) {
    scenario.specs.push_back(std::make_unique<wfspec::WorkflowSpec>(
        generator.generate("wf" + std::to_string(w), rng)));
  }

  scenario.engine = std::make_unique<engine::Engine>(engine_config);
  for (const auto& spec : scenario.specs) scenario.engine->start_run(*spec);

  // Inject attacks. The first one hits a run's start task (guaranteed to
  // execute); the rest hit random tasks, which may or may not lie on the
  // chosen path -- a failed malicious task needs no recovery (paper,
  // Section VII).
  std::set<std::pair<engine::RunId, wfspec::TaskId>> injected;
  for (std::size_t a = 0; a < n_attacks; ++a) {
    const auto run = static_cast<engine::RunId>(rng.below(n_workflows));
    const auto& spec = *scenario.specs[static_cast<std::size_t>(run)];
    const auto task = a == 0 ? spec.start()
                             : static_cast<wfspec::TaskId>(rng.below(spec.task_count()));
    if (!injected.insert({run, task}).second) continue;
    scenario.engine->inject_malicious(run, task);
  }

  if (fault_injector) scenario.engine->set_fault_injector(std::move(fault_injector));
  scenario.engine->run_all();
  for (const auto& e : scenario.engine->log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) scenario.malicious.push_back(e.id);
  }
  return scenario;
}

}  // namespace selfheal::sim
