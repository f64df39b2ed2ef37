#include "selfheal/service/world.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal::service {

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
  // Teardown order mirrors Tenant::~Tenant: controller first, then
  // detach the durable observer before the engine dies.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
}

void TenantWorld::apply(const Request& request) {
  switch (request.kind) {
    case RequestKind::kSubmitRun: {
      const auto& spec = specs_.intern(request.spec_dsl, *catalog_);
      std::vector<std::pair<wfspec::TaskId, int>> attacks;
      for (const auto& mark : request.attacks) {
        attacks.emplace_back(spec.task_by_name(mark.task), mark.incarnation);
      }
      // A submit is one WAL record (the run start writes the objects,
      // spec and run the media lacks); the checkpoint policy closes it,
      // or writes a snapshot that subsumes it.
      if (durable_ != nullptr) durable_->begin_batch();
      {
        const auto run = engine_->start_run(spec);
        for (const auto& [task, incarnation] : attacks) {
          engine_->inject_malicious(run, task, incarnation);
        }
        engine_->run_all();
        runs_.push_back(run);
      }
      if (durable_ != nullptr) durable_->checkpoint(*engine_);
      break;
    }
    case RequestKind::kAlert: {
      if (request.alert_run >= runs_.size()) {
        throw std::out_of_range("world: alert for unknown run");
      }
      ids::Alert alert;
      alert.malicious = engine_->malicious_entries(runs_[request.alert_run]);
      alert.report_time = static_cast<double>(engine_->log().size());
      controller_->submit_alert(std::move(alert));
      break;
    }
    case RequestKind::kQuery:
    case RequestKind::kDrain:
      break;  // read-only / seal: no engine effect
  }
}

void TenantWorld::apply_step() {
  if (durable_ != nullptr) durable_->begin_batch();
  if (!controller_->scan_one() && !controller_->recover_one()) {
    throw std::logic_error("world: controller stalled");
  }
  if (durable_ != nullptr) durable_->end_batch();
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
  std::ostringstream out;
  out << "world v1 " << session_text.size() << " " << media.size() << " "
      << runs_.size() << "\n";
  out << session_text << media;
  for (const auto run : runs_) out << "run " << run << "\n";
  return out.str();
}

void TenantWorld::import_state(const std::string& blob) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("world import: " + what);
  };
  std::size_t pos = blob.find('\n');
  if (pos == std::string::npos) bad("missing header line");
  std::istringstream head(blob.substr(0, pos));
  std::string magic;
  std::string version;
  std::size_t session_bytes = 0;
  std::size_t media_bytes = 0;
  std::size_t n_runs = 0;
  if (!(head >> magic >> version >> session_bytes >> media_bytes >> n_runs) ||
      magic != "world" || version != "v1") {
    bad("bad header");
  }
  ++pos;
  if (blob.size() - pos < session_bytes + media_bytes) bad("truncated body");
  std::istringstream session_in(blob.substr(pos, session_bytes));
  pos += session_bytes;
  engine::Session session = engine::load_session(session_in);

  std::vector<engine::RunId> runs;
  runs.reserve(n_runs);
  {
    std::istringstream tail(blob.substr(pos + media_bytes));
    std::string keyword;
    engine::RunId run = 0;
    while (tail >> keyword >> run) {
      if (keyword != "run") bad("bad run line");
      runs.push_back(run);
    }
    if (runs.size() != n_runs) bad("run count mismatch");
  }

  // Commit point: from here on, replace this world wholesale.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
  catalog_ = std::move(session.catalog);
  specs_ = SpecCache{};
  specs_.adopt(std::move(session.specs));
  engine_ = std::move(session.engine);
  runs_ = std::move(runs);
  if (config_.durable) {
    if (durable_ == nullptr) {
      durable_ = std::make_unique<engine::DurableSessionStore>();
    }
    durable_->import_media(blob.substr(pos, media_bytes));
    engine_->set_durability_observer(durable_.get());
  }
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

}  // namespace selfheal::service
