#include "fastcast/storage/backend.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/logging.hpp"

namespace fastcast::storage {

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

std::vector<std::string> MemBackend::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

bool MemBackend::read(const std::string& name, std::vector<std::byte>& out) const {
  auto it = files_.find(name);
  if (it == files_.end()) return false;
  // A live reader sees everything written, synced or not — exactly like a
  // process re-reading its own buffered writes through the page cache.
  out = it->second.bytes;
  return true;
}

void MemBackend::append(const std::string& name, std::span<const std::byte> data) {
  auto& file = files_[name];
  file.bytes.insert(file.bytes.end(), data.begin(), data.end());
}

void MemBackend::sync(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return;
  it->second.durable = it->second.bytes.size();
}

void MemBackend::write_atomic(const std::string& name,
                              std::span<const std::byte> data) {
  auto& file = files_[name];
  file.bytes.assign(data.begin(), data.end());
  file.durable = file.bytes.size();
}

void MemBackend::remove(const std::string& name) { files_.erase(name); }

void MemBackend::drop_unsynced(Rng* torn_rng) {
  for (auto& [name, file] : files_) {
    const std::size_t pending = file.bytes.size() - file.durable;
    if (pending == 0) continue;
    // Model sequential disk writes: a random *prefix* of the unsynced
    // bytes may have reached the platter before the kill, possibly
    // cutting a record in half (the torn tail recovery must repair).
    std::size_t keep = 0;
    if (torn_rng != nullptr) {
      keep = static_cast<std::size_t>(
          torn_rng->uniform(static_cast<std::uint64_t>(pending) + 1));
    }
    file.bytes.resize(file.durable + keep);
    file.durable = file.bytes.size();
  }
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

namespace {

void make_dirs(const std::string& path) {
  std::string partial;
  partial.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      partial.push_back(path[i]);
      continue;
    }
    if (!partial.empty() && partial != "/" && partial != ".") {
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        FC_ASSERT_MSG(false, "mkdir failed");
      }
    }
    if (i < path.size()) partial.push_back('/');
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool write_all(int fd, std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const char*>(data.data());
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FileBackend::FileBackend(std::string dir) : dir_(std::move(dir)) {
  FC_ASSERT_MSG(!dir_.empty(), "FileBackend needs a directory");
  make_dirs(dir_);
}

FileBackend::~FileBackend() {
  for (auto& [name, fd] : fds_) ::close(fd);
}

std::string FileBackend::path_of(const std::string& name) const {
  return dir_ + "/" + name;
}

int FileBackend::fd_for(const std::string& name) {
  auto it = fds_.find(name);
  if (it != fds_.end()) return it->second;
  const int fd =
      ::open(path_of(name).c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  FC_ASSERT_MSG(fd >= 0, "cannot open wal file for append");
  fds_.emplace(name, fd);
  return fd;
}

void FileBackend::drop_fd(const std::string& name) {
  auto it = fds_.find(name);
  if (it == fds_.end()) return;
  ::close(it->second);
  fds_.erase(it);
}

std::vector<std::string> FileBackend::list() const {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return names;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    if (name.size() >= 4 && name.ends_with(".tmp")) continue;  // aborted write_atomic
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

bool FileBackend::read(const std::string& name, std::vector<std::byte>& out) const {
  const int fd = ::open(path_of(name).c_str(), O_RDONLY);
  if (fd < 0) return false;
  out.clear();
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

void FileBackend::append(const std::string& name, std::span<const std::byte> data) {
  FC_ASSERT_MSG(write_all(fd_for(name), data), "wal append failed");
}

void FileBackend::sync(const std::string& name) { ::fsync(fd_for(name)); }

void FileBackend::write_atomic(const std::string& name,
                               std::span<const std::byte> data) {
  const std::string tmp = path_of(name) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  FC_ASSERT_MSG(fd >= 0, "cannot open tmp file");
  FC_ASSERT_MSG(write_all(fd, data), "tmp write failed");
  ::fsync(fd);
  ::close(fd);
  FC_ASSERT_MSG(::rename(tmp.c_str(), path_of(name).c_str()) == 0, "rename failed");
  fsync_dir(dir_);
  // Any cached append fd points at the replaced inode; reopen on next use.
  drop_fd(name);
}

void FileBackend::remove(const std::string& name) {
  drop_fd(name);
  ::unlink(path_of(name).c_str());
}

}  // namespace fastcast::storage
