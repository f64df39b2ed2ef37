#include "selfheal/service/world.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/util/text_reader.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal::service {

namespace {

/// Discards the step's WAL batch if the step throws before closing it,
/// so the media keeps only whole steps and the next batch starts empty.
/// A no-op once the step closed its batch (abort_batch ignores a closed
/// one).
class StepBatch {
 public:
  explicit StepBatch(engine::DurableSessionStore* store) : store_(store) {
    if (store_ != nullptr) store_->begin_batch();
  }
  ~StepBatch() {
    if (store_ != nullptr) store_->abort_batch();
  }
  StepBatch(const StepBatch&) = delete;
  StepBatch& operator=(const StepBatch&) = delete;

 private:
  engine::DurableSessionStore* store_;
};

using AttackList = std::vector<std::pair<wfspec::TaskId, int>>;

/// The request's attack marks as task ids of `spec`. Throws
/// std::out_of_range for a mark naming no task of `spec`.
AttackList resolve_attacks(const wfspec::WorkflowSpec& spec,
                           const Request& request) {
  AttackList attacks;
  for (const auto& mark : request.attacks) {
    attacks.emplace_back(spec.task_by_name(mark.task), mark.incarnation);
  }
  return attacks;
}

Applied refusal(std::string error) {
  Applied applied;
  applied.refused = true;
  applied.error = std::move(error);
  return applied;
}

}  // namespace

TenantEndState capture_end_state(engine::Engine& engine,
                                 engine::DurableSessionStore* durable,
                                 const recovery::ControllerStats& stats) {
  TenantEndState state;
  std::ostringstream session;
  engine::save_session(engine, session);
  state.session = session.str();
  if (durable != nullptr) state.wal = durable->wal();
  state.store = engine.log().effective_store();
  state.log_entries = engine.log().size();
  state.scans = stats.scans;
  state.recoveries = stats.recoveries;
  state.strict_correct =
      recovery::CorrectnessChecker(engine).check().strict_correct();
  return state;
}

const wfspec::WorkflowSpec* SpecCache::find(const std::string& dsl) const {
  const auto it = by_dsl_.find(dsl);
  return it == by_dsl_.end() ? nullptr : it->second;
}

const wfspec::WorkflowSpec& SpecCache::intern(const std::string& dsl,
                                              wfspec::ObjectCatalog& catalog) {
  specs_.push_back(
      std::make_unique<wfspec::WorkflowSpec>(wfspec::parse_workflow(dsl, catalog)));
  by_dsl_.emplace(dsl, specs_.back().get());
  return *specs_.back();
}

void SpecCache::adopt(std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs) {
  for (auto& spec : specs) specs_.push_back(std::move(spec));
}

TenantWorld::TenantWorld(const TenantConfig& config)
    : config_(config),
      catalog_(std::make_unique<wfspec::ObjectCatalog>()),
      engine_(std::make_unique<engine::Engine>(config.engine)) {
  if (config_.durable) {
    durable_ = std::make_unique<engine::DurableSessionStore>();
    durable_->snapshot(*engine_);
    engine_->set_durability_observer(durable_.get());
  }
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

TenantWorld::~TenantWorld() {
  // The controller must die before the engine; detach the durable
  // observer so late engine destruction can't touch durable_.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
}

Applied TenantWorld::apply(const Request& request) {
  switch (request.kind) {
    case RequestKind::kSubmitRun: return submit(request);
    case RequestKind::kAlert: return alert(request);
    case RequestKind::kQuery:
    case RequestKind::kDrain:
      break;  // read-only / seal: no engine effect
  }
  return {};
}

Applied TenantWorld::submit(const Request& request) {
  // Resolve the spec and the attack marks before anything is mutated. A
  // DSL seen for the first time is parsed against a copy of the catalog
  // first: parsing interns object names as it goes, and a malformed spec
  // or a bad attack mark must intern none of them.
  const wfspec::WorkflowSpec* spec = specs_.find(request.spec_dsl);
  AttackList attacks;
  try {
    if (spec != nullptr) {
      attacks = resolve_attacks(*spec, request);
    } else {
      wfspec::ObjectCatalog scratch = *catalog_;
      attacks = resolve_attacks(
          wfspec::parse_workflow(request.spec_dsl, scratch), request);
    }
  } catch (const std::logic_error& e) {
    return refusal(e.what());
  }
  if (spec == nullptr) spec = &specs_.intern(request.spec_dsl, *catalog_);

  // A submit is one WAL record (the run start writes the objects, spec
  // and run the media lacks); the checkpoint policy closes it, or writes
  // a snapshot that subsumes it. The attack marks land between start and
  // execution: an intruder corrupts live tasks, not specs.
  const StepBatch batch(durable_.get());
  const auto before = engine_->log().size();
  Applied applied;
  applied.run = engine_->start_run(*spec);
  for (const auto& [task, incarnation] : attacks) {
    engine_->inject_malicious(applied.run, task, incarnation);
  }
  engine_->run_all();
  if (durable_ != nullptr) durable_->checkpoint(*engine_);
  applied.tasks_executed = engine_->log().size() - before;
  return applied;
}

Applied TenantWorld::alert(const Request& request) {
  // A refused submit starts no run, so the n-th accepted submission is
  // engine run n.
  if (request.alert_run >= engine_->run_count()) {
    return refusal("alert for unknown run index " +
                   std::to_string(request.alert_run));
  }
  ids::Alert alert;
  alert.malicious =
      engine_->malicious_entries(static_cast<engine::RunId>(request.alert_run));
  alert.report_time = static_cast<double>(engine_->log().size());
  Applied applied;
  applied.malicious_reported = alert.malicious.size();
  // Requests apply only in NORMAL, so the (bounded) alert queue is empty
  // and submission cannot lose the alert.
  controller_->submit_alert(std::move(alert));
  return applied;
}

std::size_t TenantWorld::apply_step() {
  const StepBatch batch(durable_.get());
  auto work = controller_->scan_one();
  if (!work) work = controller_->recover_one();
  // The controller guarantees progress outside NORMAL (a full recovery
  // buffer unblocks recover_one); reaching here is an invariant
  // violation, not a client error.
  if (!work) throw std::logic_error("world: controller stalled");
  if (durable_ != nullptr) durable_->end_batch();
  return *work;
}

TenantEndState TenantWorld::capture() {
  return capture_end_state(*engine_, durable_.get(), controller_->stats());
}

std::string TenantWorld::export_state() const {
  if (controller_->state() != recovery::SystemState::kNormal) {
    throw std::logic_error("world: export requires NORMAL state");
  }
  std::ostringstream session;
  engine::save_session(*engine_, session);
  const std::string session_text = session.str();
  const std::string media =
      durable_ != nullptr ? durable_->export_media() : std::string();
  std::string out;
  const auto runs = engine_->run_count();
  util::append_fields(out, "world", "v1", session_text.size(), media.size(), runs);
  out += '\n';
  out += session_text;
  out += media;
  for (std::size_t run = 0; run < runs; ++run) {
    util::append_fields(out, "run", run);
    out += '\n';
  }
  return out;
}

void TenantWorld::import_state(std::string_view blob) {
  util::TextReader in(blob, "world import");
  auto head = in.header();
  head.expect("world");
  head.expect("v1");
  const auto session_bytes = head.integer<std::size_t>("session bytes");
  const auto media_bytes = head.integer<std::size_t>("media bytes");
  const auto n_runs = head.integer<std::size_t>("run count");
  head.done();
  const auto session_text = in.take(session_bytes, "session");
  const auto media = in.take(media_bytes, "media");
  engine::Session session = engine::load_session(session_text);

  // The n-th submission is run n: the lines count the runs in order.
  std::size_t runs = 0;
  while (!in.at_end()) {
    auto line = in.tokens();
    line.expect("run");
    if (line.integer<std::size_t>("run id") != runs++) line.fail("run out of order");
    line.done();
  }
  if (runs != n_runs || runs != session.engine->run_count()) {
    in.fail("run count mismatch");
  }
  // The media last: import_media replaces the store's media only once
  // its whole blob parsed, so any refusal leaves this world as it was.
  if (durable_ != nullptr) durable_->import_media(media);

  // Commit point: from here on, replace this world wholesale.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
  catalog_ = std::move(session.catalog);
  specs_ = SpecCache{};
  specs_.adopt(std::move(session.specs));
  engine_ = std::move(session.engine);
  if (durable_ != nullptr) engine_->set_durability_observer(durable_.get());
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

}  // namespace selfheal::service
