// CTMC solver scalability: dense GTH vs the sparse kernel stack
// as the Fig. 3 state space grows.
//
//   ctmc_scalability                         # table on stdout
//   ctmc_scalability --json-out BENCH_ctmc.json
//
// Sweeps the buffer size (state count n = (buffer+1)^2) and times, per
// size:
//   * sparse steady state (RCM + banded GTH, the production path);
//   * dense GTH, the parity reference (skipped above --dense-cap
//     states, where O(n^3) stops being a benchmark and becomes a
//     coffee break).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/obs/artifacts.hpp"
#include "selfheal/obs/metrics.hpp"
#include "selfheal/util/flags.hpp"
#include "selfheal/util/fsio.hpp"
#include "selfheal/util/table.hpp"

using namespace selfheal;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

ctmc::RecoveryStg make_stg(std::size_t buffer) {
  ctmc::RecoveryStgConfig cfg;  // paper rates: lambda=1, mu1=15, xi1=20
  cfg.f = ctmc::power_decay(1.0);
  cfg.g = ctmc::power_decay(1.0);
  cfg.alert_buffer = buffer;
  cfg.recovery_buffer = buffer;
  return ctmc::RecoveryStg(cfg);
}

/// Best-of-3 wall clock.
template <typename Fn>
double best_of_3_ms(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

struct SolverRow {
  std::size_t buffer = 0;
  std::size_t states = 0;
  std::size_t nnz = 0;
  double sparse_ms = 0;
  double dense_gth_ms = -1;  // -1: skipped (above --dense-cap)
  double speedup = -1;       // dense GTH / sparse
};

void write_json(const std::string& path, const std::vector<SolverRow>& rows) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"ctmc_scalability\",\n"
      << "  \"schema_version\": 3,\n"
      << "  \"solver_sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"buffer\": " << r.buffer << ", \"states\": " << r.states
        << ", \"nnz\": " << r.nnz << ", \"sparse_steady_ms\": " << r.sparse_ms
        << ", \"dense_gth_ms\": " << r.dense_gth_ms
        << ", \"dense_over_sparse\": " << r.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  // Atomic replace: the committed baseline is diffed against this file,
  // so a crash mid-write must not leave a torn artifact behind.
  util::write_file_atomic(path, out.str());
}

}  // namespace

int run(const util::Flags& flags) {
  obs::init_from_flags(flags);
  const auto dense_cap = flags.get_count("dense-cap", 2025);
  const auto json_out = flags.get("json-out", "");
  flags.done();

  std::printf("CTMC solver scalability (Fig. 3 chain, paper rates, mu_k=mu1/k)\n\n");

  const std::vector<std::size_t> buffers{15, 31, 44, 63, 103};
  std::vector<SolverRow> rows;
  util::Table table({"buffer", "states", "nnz", "sparse ms", "dense GTH ms",
                     "dense/sparse"});
  table.set_precision(3);

  for (const auto buffer : buffers) {
    const auto stg = make_stg(buffer);
    const auto& chain = stg.chain();
    SolverRow row;
    row.buffer = buffer;
    row.states = chain.state_count();
    row.nnz = chain.nnz();

    row.sparse_ms = best_of_3_ms([&] {
      const auto pi = chain.steady_state();
      if (!pi) std::fprintf(stderr, "!! sparse steady state failed\n");
    });

    if (row.states <= dense_cap) {
      // The timing includes building the dense generator, O(n^2) next
      // to the O(n^3) elimination.
      const auto t0 = std::chrono::steady_clock::now();
      const auto dense = chain.steady_state_dense();
      row.dense_gth_ms = ms_since(t0);
      if (!dense) std::fprintf(stderr, "!! dense GTH failed\n");
      row.speedup = row.sparse_ms > 0 ? row.dense_gth_ms / row.sparse_ms : -1;
    }

    table.add(row.buffer, row.states, row.nnz, row.sparse_ms,
              row.dense_gth_ms >= 0 ? std::to_string(row.dense_gth_ms) : "-",
              row.speedup >= 0 ? std::to_string(row.speedup) : "-");
    rows.push_back(row);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n# Sparse = RCM + banded GTH: exact like dense GTH but\n"
              "# O(n*bandwidth^2) instead of O(n^3); the largest size here\n"
              "# (10816 states) never materialises a dense matrix at all.\n");

  if (!json_out.empty()) {
    write_json(json_out, rows);
    std::printf("\n# wrote %s\n", json_out.c_str());
  }
  obs::flush_from_flags(flags);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
