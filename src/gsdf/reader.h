// gsdf file reader: parses the directory at open, then serves whole-dataset
// reads through the underlying Env file handle (so each dataset access pays
// the storage model's seek/transfer costs, like HDF4 did on a real disk),
// one dataset at a time or several through ReadBatch, the one place where
// requested datasets become device transfers.
#ifndef GODIVA_GSDF_READER_H_
#define GODIVA_GSDF_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gsdf/format.h"
#include "gsdf/writer.h"
#include "sim/env.h"

namespace godiva::gsdf {

struct DatasetInfo {
  std::string name;
  DataType type = DataType::kByte;
  int64_t offset = 0;  // payload position within the file
  int64_t nbytes = 0;
  AttributeList attributes;

  int64_t num_elements() const { return nbytes / SizeOf(type); }

  // Returns the attribute value, or nullptr if absent.
  const std::string* FindAttribute(const std::string& key) const;
};

// One request of a ReadBatch: a whole dataset read into `out`, which must
// hold at least the dataset's nbytes.
struct BatchRequest {
  std::string name;
  void* out = nullptr;
  int64_t out_bytes = 0;
};

// What a ReadBatch actually issued against the file.
struct BatchStats {
  int64_t transfers = 0;  // file reads performed
  int64_t coalesced = 0;  // requests that rode along a neighbour's transfer
  int64_t gap_bytes = 0;  // inter-dataset bytes read and discarded
};

// How ReadBatch splits a file's requested datasets into transfers. The
// only run-split thresholds in the tree: callers that batch reads (the
// query layer) pass them through to ReadBatch rather than lay out runs.
struct BatchLimits {
  // Two runs of datasets are merged into one transfer when the file gap
  // between them is at most this many bytes (the discarded gap is cheaper
  // than a seek, cf. the paper's HDF4 access costs).
  int64_t max_gap = 64 * 1024;
  // Upper bound on a single merged transfer, so coalescing never needs an
  // unboundedly large scratch buffer.
  int64_t max_transfer = 8 * 1024 * 1024;
};

// ReadBatch's options: the run-split limits plus checksum verification.
struct BatchOptions : BatchLimits {
  // Check each dataset against its __crc32 attribute after the bytes land
  // (FAILED_PRECONDITION if a dataset carries no checksum).
  bool verify = false;
};

// Thread-compatible: concurrent Read()s are safe iff the underlying
// RandomAccessFile is (both provided backends are).
class Reader {
 public:
  // Opens `path`, validates magic/version (v1 and v2 accepted; v2 also
  // checks the tail CRC), and loads the directory. DATA_LOSS if an entry's
  // payload lies outside the file or is not a whole number of elements of
  // its type.
  static Result<std::unique_ptr<Reader>> Open(Env* env,
                                              const std::string& path);

  // Like Open, but when the footer/directory is corrupt or truncated,
  // forward-scans the file for directory entries whose payload CRC-32
  // verifies (and whose size is a whole number of elements), and serves
  // exactly those datasets. The structural error that forced the scan is
  // kept in salvage_error() (a DATA_LOSS, so callers can surface partial
  // results as degraded rather than unavailable). Fails only if the file
  // cannot be read at all or lacks the gsdf magic.
  static Result<std::unique_ptr<Reader>> OpenSalvage(Env* env,
                                                     const std::string& path);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() = default;

  const std::vector<DatasetInfo>& datasets() const { return datasets_; }
  const AttributeList& file_attributes() const { return file_attributes_; }
  const std::string& path() const { return path_; }
  uint32_t version() const { return version_; }

  // True iff this reader was produced by a salvage scan (the normal load
  // failed). salvage_error() then holds why.
  bool salvaged() const { return salvaged_; }
  const Status& salvage_error() const { return salvage_error_; }

  // Returns the directory entry for `name`, or NOT_FOUND.
  Result<const DatasetInfo*> Find(const std::string& name) const;

  // Reads the whole payload of `name` into `out` (which must hold
  // `out_bytes` ≥ dataset size; exactly dataset-size bytes are read).
  Status Read(const std::string& name, void* out, int64_t out_bytes) const;

  // Reads several whole datasets in one pass, merging requests that sit
  // adjacent in the file (within options.max_gap, up to
  // options.max_transfer per merged transfer) into single reads — so a
  // block's x/y/z/conn/quantity arrays, written back to back by the
  // snapshot writer, cost one seek instead of five. A run whose datasets
  // follow each other in the file with no gap, and whose buffers follow
  // each other in memory in the same order, is read straight into those
  // buffers; any other merged run lands in a scratch buffer and is copied
  // out. Validates every request (and, with options.verify, every
  // checksum) and fails without partial effects being reported; buffer
  // contents are unspecified on error. With options.verify, each dataset
  // is checksummed exactly once, on the bytes its run's read landed, so a
  // mismatch surfaces before later transfers are issued. Returns what was
  // actually issued.
  Result<BatchStats> ReadBatch(const std::vector<BatchRequest>& requests,
                               const BatchOptions& options = {}) const;

  // Like Read, but additionally checks the payload against its __crc32
  // attribute in the same pass (no second read of the data). Returns
  // DATA_LOSS on mismatch — `out` then holds the corrupt bytes and must not
  // be used — and FAILED_PRECONDITION if the dataset carries no checksum.
  Status ReadVerified(const std::string& name, void* out,
                      int64_t out_bytes) const;

  // Reads the dataset and verifies it against its __crc32 attribute.
  // Returns DATA_LOSS on mismatch, FAILED_PRECONDITION if the file was
  // written without checksums.
  Status VerifyChecksum(const std::string& name) const;

  // Verifies every checksummed dataset; fails on the first mismatch.
  Status VerifyAllChecksums() const;

 private:
  Reader(Env* env, std::string path);

  Status Load();
  // Best-effort recovery scan over the whole file; populates datasets_ with
  // every parseable, checksum-valid directory entry.
  Status LoadSalvage();
  // Attempts to parse one directory entry at `pos` of the in-memory file
  // image `data` of `size` bytes and prove it genuine: plausible printable
  // name, valid dtype, payload fully inside [kHeaderSize, pos), and a
  // __crc32 attribute that matches the payload bytes. Returns the encoded
  // entry size on success, -1 on any mismatch. The CRC requirement makes
  // false positives on payload bytes that merely look like an entry all
  // but impossible.
  int64_t TrySalvageEntry(const uint8_t* data, int64_t pos, int64_t size,
                          DatasetInfo* out) const;

  // The one whole-dataset read behind Read, ReadVerified and
  // VerifyChecksum: with `verify`, FAILED_PRECONDITION before any I/O if
  // `info` carries no checksum; INVALID_ARGUMENT if `out_bytes` is short;
  // then the payload into `out` and, with `verify`, its checksum check.
  Status ReadDataset(const DatasetInfo& info, void* out, int64_t out_bytes,
                     bool verify) const;

  // The one checksum check of every verified read: FAILED_PRECONDITION if
  // `info` carries no __crc32 attribute; then, given the dataset's bytes in
  // `payload`, DATA_LOSS unless their CRC-32 matches it. Without `payload`
  // only the attribute's presence is checked, so callers can reject an
  // unchecksummed dataset before issuing any I/O.
  Status CheckChecksum(const DatasetInfo& info,
                       std::optional<const void*> payload = {}) const;

  // Rebuilds by_name_ over datasets_.
  void IndexDirectory();

  std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<DatasetInfo> datasets_;
  // Positions in datasets_ sorted by name, then by position, so Find() is
  // a binary search that finds the first of several entries with one name
  // (a snapshot file has ~300), and indexing a directory allocates once,
  // not once per entry.
  std::vector<uint32_t> by_name_;
  AttributeList file_attributes_;
  Env* env_;
  uint32_t version_ = kVersion;
  bool salvaged_ = false;
  Status salvage_error_ = Status::Ok();
};

}  // namespace godiva::gsdf

#endif  // GODIVA_GSDF_READER_H_
