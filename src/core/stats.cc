#include "core/stats.h"

#include "common/strings.h"

namespace godiva {

std::string GboStats::ToString() const {
  std::string per_thread;
  for (size_t i = 0; i < io_thread_busy_seconds.size(); ++i) {
    if (i > 0) per_thread += "/";
    per_thread += FormatSeconds(io_thread_busy_seconds[i]);
  }
  return StrCat(
      "GboStats{visible_io=", FormatSeconds(visible_io_seconds),
      " read_fn=", FormatSeconds(read_fn_seconds),
      " prefetch=", FormatSeconds(prefetch_seconds),
      " pool[queue_hw=", queue_depth_high_water,
      " promotions=", demand_promotions,
      " busy=", FormatSeconds(io_busy_seconds),
      per_thread.empty() ? "" : StrCat(" (", per_thread, ")"),
      "] units[added=", units_added, " prefetched=", units_prefetched,
      " fg=", units_read_foreground, " hits=", unit_cache_hits,
      " evicted=", units_evicted, " deleted=", units_deleted,
      " deadlocks=", deadlocks_detected,
      "] retries[", read_retries, ", permanent_failures=",
      units_failed_permanent,
      "] resilience[quarantined=", files_quarantined,
      " short_circuited=", reads_short_circuited,
      "] ingest[superseded=", units_superseded,
      " invalidated=", units_invalidated,
      " notifications=", watch_notifications,
      "] invariant_checks=", invariant_checks,
      " records[created=", records_created,
      " committed=", records_committed, "] lookups[", key_lookups, "/",
      failed_lookups, " failed] lru_touches=", lru_touches,
      " mem[cur=", FormatBytes(current_memory_bytes),
      " peak=", FormatBytes(peak_memory_bytes),
      " total=", FormatBytes(total_bytes_allocated), "]}");
}

}  // namespace godiva
