// On-disk journal of completed work units.
//
// The coordinator appends one flushed line per completed unit, so a killed
// campaign loses at most the units that were literally in flight. A header
// pins the campaign fingerprint (protocol.hpp): `--resume` against a
// journal written by a different suite, seed, trial count or chunk size is
// refused instead of silently merging apples into oranges.
//
//   pamr-shards/1 fingerprint=9f2ab77c01d3e8a4
//   done 0 aggv=2 n=8 sf=...
//   done 3 aggv=2 n=8 sf=...
//
// A truncated final line (the crash happened mid-append) is dropped with a
// warning — its unit simply reruns; corruption anywhere else is an error.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

namespace pamr {
namespace dist {

class ShardLog {
 public:
  explicit ShardLog(std::string path) : path_(std::move(path)) {}
  ~ShardLog();

  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Reads an existing journal into `completed` (unit id -> aggregate wire
  /// line). A missing or empty file is fine (leaves `completed` empty);
  /// a fingerprint mismatch or a corrupt interior line returns false with
  /// `error` set.
  [[nodiscard]] bool load(std::string_view fingerprint,
                          std::map<std::uint64_t, std::string>& completed,
                          std::string& error);

  /// Opens for appending, writing the header first if the file is new or
  /// empty. Returns false with `error` set on I/O failure.
  [[nodiscard]] bool open_append(std::string_view fingerprint, std::string& error);

  /// Appends one completed unit and flushes. Returns false (after logging,
  /// once) on I/O failure — the campaign still finishes, it just cannot be
  /// resumed past this point.
  bool record(std::uint64_t unit_id, std::string_view aggregate);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool warned_ = false;
};

}  // namespace dist
}  // namespace pamr
