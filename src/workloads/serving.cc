#include "workloads/serving.h"

#include <cstring>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/random.h"
#include "common/thread.h"
#include "common/strings.h"
#include "core/key_util.h"
#include "core/record.h"

namespace godiva::workloads {

namespace {

constexpr int kKeyBytes = 32;

// FNV-1a-64 of a unit name: the seed of its payload's draw stream.
uint64_t NameHash(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Fills `size` bytes at `out` with the little-endian byte stream of
// Random(NameHash(name)): each draw gives eight bytes, least-significant
// first, and a shorter tail takes the low bytes of one more draw. The
// shifts fix the byte order on every host. Spelling the eight bytes out
// in a local array lets GCC emit one 8-byte store per draw at -O2 and
// -O3; a loop of byte stores straight into `out` stays partly unmerged.
void FillPayload(const std::string& name, uint8_t* out, int64_t size) {
  Random draws(NameHash(name));
  int64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint64_t w = draws.NextUint64();
    const uint8_t le[8] = {
        static_cast<uint8_t>(w),       static_cast<uint8_t>(w >> 8),
        static_cast<uint8_t>(w >> 16), static_cast<uint8_t>(w >> 24),
        static_cast<uint8_t>(w >> 32), static_cast<uint8_t>(w >> 40),
        static_cast<uint8_t>(w >> 48), static_cast<uint8_t>(w >> 56)};
    std::memcpy(out + i, le, sizeof(le));
  }
  if (i < size) {
    uint64_t word = draws.NextUint64();
    for (; i < size; ++i, word >>= 8) out[i] = static_cast<uint8_t>(word);
  }
}

Status AbsorbExists(Status status) {
  if (status.code() == StatusCode::kAlreadyExists) return Status::Ok();
  return status;
}

// Spec of one simulated client, derived from ServingOptions.
struct ClientSpec {
  SessionConfig config;
  int reads = 0;
  int units = 1;        // population the trace indexes into
  int start = 0;        // first index (staggers streaming clients)
  bool streaming = false;  // sequential scan (vs. cycle over the hot set)
  int prefetch_ahead = 0;
  bool pin_working_set = false;  // hold one pin per distinct unit read
  Duration start_delay = Duration::zero();
  std::string prefix;
};

void RunClient(GboSession* session, const ClientSpec& spec,
               const ServingOptions& options, ClientResult* out) {
  out->name = session->config().name;
  out->priority = spec.config.priority;
  out->latencies_ms.reserve(static_cast<size_t>(spec.reads));
  Gbo::ReadFn read_fn =
      ServingReadFn(options.payload_bytes, options.read_cost);
  std::vector<bool> working_set(static_cast<size_t>(spec.units), false);
  if (spec.start_delay > Duration::zero()) {
    SleepFor(spec.start_delay);
  }
  Stopwatch elapsed;
  for (int r = 0; r < spec.reads; ++r) {
    const int index = (spec.start + r) % spec.units;
    const std::string unit = StrCat(spec.prefix, "u", index);
    for (int p = 1; p <= spec.prefetch_ahead; ++p) {
      const std::string ahead =
          StrCat(spec.prefix, "u", (index + p) % spec.units);
      Status prefetched = session->Prefetch(ahead, read_fn);
      if (prefetched.ok()) {
        ++out->prefetches_ok;
      } else {
        ++out->prefetches_rejected;
      }
    }
    Stopwatch stopwatch;
    Status read = session->Read(unit, read_fn);
    if (read.ok()) {
      ++out->reads_ok;
      out->latencies_ms.push_back(stopwatch.ElapsedSeconds() * 1e3);
      // A pinning client keeps the first pin on each distinct unit (its
      // working set stays eviction-proof; Close releases everything);
      // otherwise release immediately.
      const bool keep = spec.pin_working_set && !working_set[index];
      if (keep) {
        working_set[index] = true;
      } else {
        // lint: discard_ok(the pin was just taken by this thread's Read)
        (void)session->Finish(unit);
      }
    } else if (read.code() == StatusCode::kResourceExhausted) {
      ++out->reads_rejected;
    } else {
      ++out->reads_failed;
    }
  }
  out->elapsed_seconds = elapsed.ElapsedSeconds();
  out->stats = session->stats();
}

}  // namespace

Status EnsureServingSchema(Gbo* db) {
  GODIVA_RETURN_IF_ERROR(AbsorbExists(
      db->DefineField("serving_key", DataType::kString, kKeyBytes)));
  GODIVA_RETURN_IF_ERROR(AbsorbExists(
      db->DefineField("serving_payload", DataType::kByte, kUnknownSize)));
  Status record = db->DefineRecord("serving_chunk", 1);
  if (record.code() == StatusCode::kAlreadyExists) return Status::Ok();
  GODIVA_RETURN_IF_ERROR(record);
  GODIVA_RETURN_IF_ERROR(db->InsertField("serving_chunk", "serving_key",
                                         /*is_key=*/true));
  GODIVA_RETURN_IF_ERROR(db->InsertField("serving_chunk", "serving_payload",
                                         /*is_key=*/false));
  return db->CommitRecordType("serving_chunk");
}

Gbo::ReadFn ServingReadFn(int64_t payload_bytes, Duration read_cost) {
  return [payload_bytes, read_cost](Gbo* db,
                                    const std::string& unit_name) -> Status {
    // PadKey truncates, so a longer name would share its key with every
    // name that has the same first kKeyBytes bytes.
    if (unit_name.size() > static_cast<size_t>(kKeyBytes)) {
      return InvalidArgumentError(
          StrCat("serving unit name '", unit_name, "' is longer than the ",
                 kKeyBytes, "-byte serving_key"));
    }
    if (read_cost > Duration::zero()) {
      // Synthetic I/O cost. Sleeping (not spinning) models a blocked I/O,
      // so dozens of concurrent "reads" do not contend for CPU. Under a
      // DiscreteEventScope the sleep lands on the virtual clock instead,
      // which is what lets thousand-session sweeps replay in milliseconds.
      SleepFor(read_cost);
    }
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("serving_chunk"));
    std::memcpy(*rec->FieldBuffer("serving_key"),
                PadKey(unit_name, kKeyBytes).data(), kKeyBytes);
    GODIVA_ASSIGN_OR_RETURN(
        void* payload,
        db->AllocFieldBuffer(rec, "serving_payload", payload_bytes));
    FillPayload(unit_name, static_cast<uint8_t*>(payload), payload_bytes);
    return db->CommitRecord(rec);
  };
}

Result<ServingReport> RunServingWorkload(Gbo* db,
                                         const ServingOptions& options) {
  GODIVA_RETURN_IF_ERROR(EnsureServingSchema(db));
  GboServer server(db, options.server);

  std::vector<ClientSpec> specs;
  auto apply_quotas = [&options](SessionConfig* config) {
    if (options.max_queued_demand > 0) {
      config->max_queued_demand = options.max_queued_demand;
    }
    if (options.max_inflight_loads > 0) {
      config->max_inflight_loads = options.max_inflight_loads;
    }
  };
  for (int i = 0; i < options.interactive_sessions; ++i) {
    ClientSpec spec;
    spec.config.name = StrCat("interactive-", i);
    spec.config.priority = PriorityClass::kInteractive;
    spec.config.unit_namespace = "hot/";
    apply_quotas(&spec.config);
    spec.reads = options.reads_per_session;
    spec.units = std::max(1, options.hot_units);
    spec.start = i;  // stagger so hot clients do not convoy on one unit
    spec.pin_working_set = true;  // the hot set rides out the cold flood
    spec.prefix = "hot/";
    specs.push_back(std::move(spec));
  }
  for (int i = 0; i < options.batch_sessions; ++i) {
    ClientSpec spec;
    spec.config.name = StrCat("batch-", i);
    spec.start_delay = options.flood_delay;
    spec.config.priority = PriorityClass::kBatch;
    spec.config.unit_namespace = "warm/";
    apply_quotas(&spec.config);
    spec.reads = options.reads_per_session;
    spec.units = std::max(1, options.batch_units);
    spec.start = i * 7;
    spec.prefix = "warm/";
    specs.push_back(std::move(spec));
  }
  for (int i = 0; i < options.background_sessions; ++i) {
    ClientSpec spec;
    spec.config.name = StrCat("background-", i);
    spec.start_delay = options.flood_delay;
    spec.config.priority = PriorityClass::kBackground;
    spec.config.unit_namespace = "cold/";
    apply_quotas(&spec.config);
    spec.reads = options.reads_per_session;
    spec.units = std::max(1, options.cold_units);
    spec.streaming = true;
    // Spread streaming clients across the cold range so they evict each
    // other rather than share hits.
    spec.start = options.background_sessions > 0
                     ? i * (spec.units / options.background_sessions)
                     : 0;
    spec.prefetch_ahead = options.prefetch_ahead;
    spec.prefix = "cold/";
    specs.push_back(std::move(spec));
  }

  std::vector<std::unique_ptr<GboSession>> sessions;
  sessions.reserve(specs.size());
  for (const ClientSpec& spec : specs) {
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<GboSession> session,
                            server.OpenSession(spec.config));
    sessions.push_back(std::move(session));
  }

  ServingReport report;
  report.clients.resize(specs.size());
  std::vector<Thread> threads;
  threads.reserve(specs.size());
  for (size_t c = 0; c < specs.size(); ++c) {
    threads.emplace_back(RunClient, sessions[c].get(), std::cref(specs[c]),
                         std::cref(options), &report.clients[c]);
  }
  for (Thread& thread : threads) thread.join();
  report.final_pressure = server.pressure_state();
  sessions.clear();  // close every session before the server dies
  report.server = server.stats();
  return report;
}

}  // namespace godiva::workloads
