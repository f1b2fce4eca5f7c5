#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fastcast/common/rng.hpp"

/// \file backend.hpp
/// Byte-level storage abstraction underneath the WAL and snapshot store.
///
/// A backend is a flat namespace of append-only files plus an atomic
/// replace primitive. Two implementations:
///   * FileBackend — POSIX files in one directory, real fsync(2); what a
///     deployed node uses (--wal-dir).
///   * MemBackend — deterministic in-memory files with an explicit
///     durable/pending split, so the simulator can model a kill -9 that
///     loses unsynced bytes (including a torn tail) while staying
///     byte-for-byte reproducible from a seed.
///
/// Backends are single-threaded like everything behind a Context: one node
/// owns one backend and touches it only from its own handler thread.

namespace fastcast::storage {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Names of all stored files, sorted lexicographically.
  virtual std::vector<std::string> list() const = 0;

  /// Reads the whole file into `out`; false if it does not exist.
  virtual bool read(const std::string& name, std::vector<std::byte>& out) const = 0;

  /// Appends bytes, creating the file if needed. Not durable until sync().
  virtual void append(const std::string& name, std::span<const std::byte> data) = 0;

  /// Makes every byte appended to `name` so far durable (fsync).
  virtual void sync(const std::string& name) = 0;

  /// Atomically replaces the file's content and makes it durable
  /// (write-temp + fsync + rename). Used for snapshots and tail repair:
  /// readers never observe a half-written file.
  virtual void write_atomic(const std::string& name,
                            std::span<const std::byte> data) = 0;

  virtual void remove(const std::string& name) = 0;

  /// Crash-emulation hook: discards bytes appended since the last sync,
  /// optionally keeping a random prefix (a torn tail) drawn from
  /// `torn_rng`. The file backend is a no-op — a killed process loses
  /// nothing it already write(2)-ed, since the page cache survives kill -9
  /// (power loss is out of scope); only the in-memory backend has unsynced
  /// bytes at risk.
  virtual void drop_unsynced(Rng* torn_rng) { (void)torn_rng; }
};

/// Deterministic in-memory backend for the simulator and tests.
class MemBackend final : public StorageBackend {
 public:
  std::vector<std::string> list() const override;
  bool read(const std::string& name, std::vector<std::byte>& out) const override;
  void append(const std::string& name, std::span<const std::byte> data) override;
  void sync(const std::string& name) override;
  void write_atomic(const std::string& name,
                    std::span<const std::byte> data) override;
  void remove(const std::string& name) override;
  void drop_unsynced(Rng* torn_rng) override;

 private:
  /// One buffer per file: the first `durable` bytes are synced, the rest
  /// were appended since. A sync only moves the watermark.
  struct File {
    std::vector<std::byte> bytes;
    std::size_t durable = 0;
  };
  std::map<std::string, File> files_;
};

/// POSIX file backend rooted at one directory (created on demand, with
/// parents). Append file descriptors are cached per file; sync() is a real
/// fsync(2), write_atomic() the usual tmp + fsync + rename + dir-fsync.
class FileBackend final : public StorageBackend {
 public:
  explicit FileBackend(std::string dir);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  std::vector<std::string> list() const override;
  bool read(const std::string& name, std::vector<std::byte>& out) const override;
  void append(const std::string& name, std::span<const std::byte> data) override;
  void sync(const std::string& name) override;
  void write_atomic(const std::string& name,
                    std::span<const std::byte> data) override;
  void remove(const std::string& name) override;

  const std::string& dir() const { return dir_; }

 private:
  int fd_for(const std::string& name);
  void drop_fd(const std::string& name);
  std::string path_of(const std::string& name) const;

  std::string dir_;
  std::map<std::string, int> fds_;  ///< cached O_APPEND descriptors
};

}  // namespace fastcast::storage
