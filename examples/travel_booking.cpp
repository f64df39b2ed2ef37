// Travel-booking scenario (the paper's second motivating example: "the
// attacker may schedule a travel with forged credit card information").
//
// A booking workflow authorizes a credit card and branches on the
// result: the approved leg books a flight and a hotel, the declined leg
// records a refusal. The attacker forges the card-authorization task,
// pushing execution down the approved leg. Recovery must undo the
// bookings (tasks that ran but should never have run -- candidate undos
// resolved as orphans), execute the declined leg fresh, and repair the
// invoicing that read the bogus charge.
//
//   $ ./travel_booking
#include <cstdio>
#include <set>
#include <string>

#include "selfheal/recovery/analyzer.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/recovery/scheduler.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/wfspec/workflow_spec.hpp"

using namespace selfheal;

namespace {
std::string name_of(const engine::Engine& eng, engine::InstanceId id) {
  const auto& e = eng.log().entry(id);
  return eng.spec_of(e.run).task(e.task).name;
}
}  // namespace

int run(const util::Flags& flags) {
  flags.done();
  wfspec::ObjectCatalog catalog;

  wfspec::WorkflowSpec booking("booking", catalog);
  const auto submit = booking.add_task("submit_card", {}, {"card"});
  const auto authorize_task = booking.add_task("authorize", {"card"}, {"auth"});
  const auto decide = booking.add_task("decide", {"auth"}, {"charge"});
  const auto flight = booking.add_task("book_flight", {"charge"}, {"flight_res"});
  const auto hotel = booking.add_task("book_hotel", {"charge", "flight_res"},
                                      {"hotel_res"});
  const auto decline = booking.add_task("decline", {"auth"}, {"refusal"});
  const auto confirm = booking.add_task("confirm",
                                        {"flight_res", "hotel_res", "refusal"},
                                        {"confirmation"});
  booking.add_edge(submit, authorize_task);
  booking.add_edge(authorize_task, decide);
  booking.add_edge(decide, flight);   // approved leg
  booking.add_edge(decide, decline);  // declined leg
  booking.add_edge(flight, hotel);
  booking.add_edge(hotel, confirm);
  booking.add_edge(decline, confirm);
  booking.validate();

  wfspec::WorkflowSpec invoicing("invoicing", catalog);
  const auto collect = invoicing.add_task("collect", {"charge"}, {"invoice"});
  const auto post = invoicing.add_task("post", {"invoice"}, {"receivables"});
  invoicing.add_edge(collect, post);
  invoicing.validate();

  // The attacker forges the card authorization.
  engine::Engine eng;
  const auto r_booking = eng.start_run(booking);
  eng.start_run(invoicing);
  eng.inject_malicious(r_booking, authorize_task);
  eng.run_all();

  std::printf("attacked log:\n  %s\n\n", eng.log().render(eng.specs_by_run()).c_str());

  engine::InstanceId forged = engine::kInvalidInstance;
  for (const auto& e : eng.log().entries()) {
    if (e.kind == engine::ActionKind::kMalicious) forged = e.id;
  }

  const recovery::RecoveryAnalyzer analyzer(eng);
  const auto plan = analyzer.analyze({forged});
  std::printf("%s\n", plan.describe(eng.log(), eng.specs_by_run()).c_str());

  recovery::RecoveryScheduler scheduler(eng);
  const auto outcome = scheduler.execute(plan);

  std::printf("orphaned (bookings that should never have happened):");
  for (const auto id : outcome.orphaned) {
    std::printf(" %s", name_of(eng, id).c_str());
  }
  std::printf("\nfresh (the leg the clean decision takes):");
  for (const auto id : outcome.fresh_entries) {
    std::printf(" %s", name_of(eng, id).c_str());
  }
  std::printf("\ndivergences: %zu\n\n", outcome.divergences);

  std::printf("repaired log:\n  %s\n\n", eng.log().render(eng.specs_by_run()).c_str());

  const recovery::CorrectnessChecker checker(eng);
  const auto report = checker.check();
  std::printf("strict correct: %s (%s)\n", report.strict_correct() ? "YES" : "NO",
              report.summary.c_str());
  return report.strict_correct() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
