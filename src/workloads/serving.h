// Multi-session serving workload (DESIGN.md §13): N simulated clients of
// mixed priority classes share one Gbo through a GboServer. Interactive
// clients re-read a small hot set (cache hits once warm); batch clients
// scan a medium range; background clients stream a cold range far larger
// than the cache, prefetching ahead — the overload knob. The driver is the
// common engine behind bench_serving and the serving tests: it runs one
// thread per client over a deterministic trace (per-client seeds) and
// returns per-client latency samples plus each session's SessionStats.
//
// The driver adds no mutex of its own: every client thread writes only its
// preallocated ClientResult slot, and Run() joins all threads before
// reading any slot.
#ifndef GODIVA_WORKLOADS_SERVING_H_
#define GODIVA_WORKLOADS_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/gbo.h"
#include "core/server.h"
#include "core/session.h"

namespace godiva::workloads {

struct ServingOptions {
  // Client mix.
  int interactive_sessions = 2;
  int batch_sessions = 2;
  int background_sessions = 4;

  // Demand reads each client issues (its whole trace).
  int reads_per_session = 64;

  // Unit populations. Interactive clients cycle over hot_units under
  // "hot/"; batch clients scan batch_units under "warm/"; background
  // clients stream cold_units under "cold/", issuing prefetch_ahead
  // speculative tickets before each demand read.
  int hot_units = 8;
  int batch_units = 32;
  int cold_units = 256;
  int prefetch_ahead = 2;

  // Bytes of synthetic payload per unit — against the Gbo's memory limit
  // this is the pressure knob.
  int64_t payload_bytes = 64 * 1024;

  // Synthetic per-read cost, slept inside the read function (on the
  // virtual clock under a DiscreteEventScope), so overload actually
  // queues. Zero for tests.
  Duration read_cost = Duration::zero();

  // Batch/background clients start this much later than the interactive
  // ones: the overload scenario is an established interactive workload
  // hit by an arriving flood (the degradation acceptance in
  // EXPERIMENTS.md is defined over that shape). Zero = all at once.
  Duration flood_delay = Duration::zero();

  // Per-session quota overrides applied to every client.
  int max_queued_demand = 0;   // 0 = SessionConfig default
  int max_inflight_loads = 0;  // 0 = SessionConfig default

  // Scheduler configuration for the GboServer the driver creates.
  ServerOptions server;

  // Base seed; client c uses seed + c.
  uint64_t seed = 42;
};

// Outcome of one simulated client, written only by that client's thread.
struct ClientResult {
  std::string name;
  PriorityClass priority = PriorityClass::kBatch;

  int64_t reads_ok = 0;
  int64_t reads_rejected = 0;  // RESOURCE_EXHAUSTED from admission/quota
  int64_t reads_failed = 0;    // any other read failure
  int64_t prefetches_ok = 0;
  int64_t prefetches_rejected = 0;

  // End-to-end demand latency of each successful Read, milliseconds.
  std::vector<double> latencies_ms;

  // Seconds this client's whole trace took on godiva::Now(): virtual
  // seconds under a DiscreteEventScope, steady wall-clock seconds
  // otherwise (its service rate denominator in fairness metrics).
  double elapsed_seconds = 0;

  // The session's own view, snapshotted after the trace completes.
  SessionStats stats;
};

struct ServingReport {
  std::vector<ClientResult> clients;
  GboServer::PressureState final_pressure = GboServer::PressureState::kOpen;
  // The server's totals, taken after every session closed.
  ServerStats server;
};

// Defines the driver's synthetic schema on `db` ("serving_chunk": one key
// field plus a payload). Idempotent: ALREADY_EXISTS is absorbed.
Status EnsureServingSchema(Gbo* db);

// A read function that sleeps for `read_cost` (on the virtual clock under
// a DiscreteEventScope), then commits one serving_chunk record for the
// unit. Its payload is the first `payload_bytes` bytes of the
// little-endian byte stream of Random(FNV-1a-64(unit_name)): each draw
// gives eight bytes, least-significant first, and a shorter tail takes
// the low bytes of one more draw. Names longer than the 32-byte
// serving_key fail with INVALID_ARGUMENT before any record is created.
Gbo::ReadFn ServingReadFn(int64_t payload_bytes, Duration read_cost);

// Runs the whole workload: creates a GboServer over `db`, opens the
// configured sessions, runs one thread per client, closes everything, and
// reports. `db` must outlive the call; the server and sessions do not
// escape it (lifecycle robustness is part of what the serving tests
// exercise through this driver).
Result<ServingReport> RunServingWorkload(Gbo* db,
                                         const ServingOptions& options);

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_SERVING_H_
