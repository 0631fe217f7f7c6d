// Fixture: a waiver covers only the first statement after it. The waived
// discard is fine; the identical discard on the next line is not covered.
// Expected: exactly one [discarded-status] finding, on line 15.
#include "common/status.h"

namespace godiva {

class FixWaiverWindow {
 public:
  Status Flush();

  void Drop() {
    // lint: discard_ok(fixture: the first discard alone is intentional)
    (void)Flush();
    (void)Flush();
  }
};

}  // namespace godiva
