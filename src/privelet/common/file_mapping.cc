#include "privelet/common/file_mapping.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/common/io_util.h"

#if defined(_WIN32)
#include <fstream>
#else
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace privelet::common {

namespace {

#if !defined(_WIN32)
std::string ResolveScratchDir(const std::string& dir) {
  if (!dir.empty()) return dir;
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}
#endif

}  // namespace

Result<MappedFile> MappedFile::Open(const std::string& path) {
#if defined(_WIN32)
  // No mmap here: read the file into an owned, 64-byte-aligned buffer so
  // callers see the same aligned bytes() a page-aligned mapping gives.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  const std::streamoff end = in.tellg();
  if (end < 0) return Status::IOError("cannot stat '" + path + "'");
  const auto size = static_cast<std::size_t>(end);
  if (size == 0) return MappedFile();
  MappedFile file;
  file.addr_ = file.owned_.Grow(size);
  file.size_ = size;
  in.seekg(0, std::ios::beg);
  in.read(static_cast<char*>(file.addr_), static_cast<std::streamsize>(size));
  if (!in || in.gcount() != static_cast<std::streamsize>(size)) {
    return Status::IOError("cannot read '" + path + "'");
  }
  return file;
#else
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "': " + ErrnoMessage());
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string msg = ErrnoMessage();
    CloseFd(fd);
    return Status::IOError("cannot stat '" + path + "': " + msg);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    CloseFd(fd);
    return MappedFile();
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is
  // not needed past this point either way.
  CloseFd(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot map '" + path + "': " + ErrnoMessage());
  }
  // Best-effort readahead hint: snapshot opens stream the whole file once
  // for the CRC check immediately after mapping.
#if defined(POSIX_MADV_WILLNEED)
  (void)::posix_madvise(addr, size, POSIX_MADV_WILLNEED);
#endif
  return MappedFile(addr, size, /*writable=*/false, /*release_safe=*/true);
#endif
}

Result<MappedFile> MappedFile::CreateScratch(std::size_t size,
                                             const std::string& dir) {
#if defined(_WIN32)
  return Status::IOError("scratch mapping is not supported on this platform");
#else
  const std::string resolved = ResolveScratchDir(dir);
  std::vector<char> name(resolved.begin(), resolved.end());
  const char suffix[] = "/privelet_scratch.XXXXXX";
  name.insert(name.end(), suffix, suffix + sizeof(suffix));
  const int fd = ::mkstemp(name.data());
  if (fd < 0) {
    return Status::IOError("cannot create scratch file under '" + resolved +
                           "': " + ErrnoMessage());
  }
  // Unlink immediately: the mapping keeps the inode alive, and the space
  // is reclaimed no matter how the process exits.
  ::unlink(name.data());
  if (size == 0) {
    CloseFd(fd);
    MappedFile empty;
    empty.writable_ = true;
    return empty;
  }
  int rc;
  do {
    rc = ::ftruncate(fd, static_cast<off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string msg = ErrnoMessage();
    CloseFd(fd);
    return Status::IOError("cannot size scratch file to " +
                           std::to_string(size) + " bytes: " + msg);
  }
  void* addr =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  CloseFd(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot map scratch file (" + std::to_string(size) +
                           " bytes): " + ErrnoMessage());
  }
  // Suppress readahead on scratch mappings: strided passes touch one
  // element per page, and physical readahead would stream whole tracts of
  // the file into the page cache for single-element reads. (This does not
  // stop fault-around, which maps already-cached pages near a read fault;
  // PageTouchedBytes accounts for that when pacing release-behind.)
#if defined(POSIX_MADV_RANDOM)
  (void)::posix_madvise(addr, size, POSIX_MADV_RANDOM);
#endif
  return MappedFile(addr, size, /*writable=*/true, /*release_safe=*/true);
#endif
}

Result<MappedFile> MappedFile::CreateAnonymous(std::size_t size) {
#if defined(_WIN32)
  return Status::IOError(
      "anonymous mapping is not supported on this platform");
#else
  if (size == 0) {
    MappedFile empty;
    empty.writable_ = true;
    return empty;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot map " + std::to_string(size) +
                           " anonymous bytes: " + ErrnoMessage());
  }
  // Anonymous pages must never be MADV_DONTNEED'ed: the kernel would
  // replace them with zero pages, destroying the contents.
  return MappedFile(addr, size, /*writable=*/true, /*release_safe=*/false);
#endif
}

std::span<std::byte> MappedFile::mutable_bytes() const {
  PRIVELET_CHECK(writable_, "mutable_bytes() on a read-only mapping");
  return {static_cast<std::byte*>(addr_), size_};
}

void MappedFile::ReleaseResidency(std::size_t offset,
                                  std::size_t length) const {
#if !defined(_WIN32)
  if (!release_safe_ || addr_ == nullptr || offset >= size_) return;
  length = std::min(length, size_ - offset);
  // madvise needs a page-aligned start; the mapping base is one.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t begin = offset - offset % page;
  (void)::madvise(static_cast<char*>(addr_) + begin, offset + length - begin,
                  MADV_DONTNEED);
#else
  (void)offset;
  (void)length;
#endif
}

void MappedFile::Reset() {
#if defined(_WIN32)
  owned_ = {};
#else
  if (addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
#endif
  addr_ = nullptr;
  size_ = 0;
  writable_ = false;
  release_safe_ = false;
}

MappedFile::~MappedFile() { Reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      writable_(std::exchange(other.writable_, false)),
      release_safe_(std::exchange(other.release_safe_, false)) {
#if defined(_WIN32)
  owned_ = std::move(other.owned_);
#endif
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    writable_ = std::exchange(other.writable_, false);
    release_safe_ = std::exchange(other.release_safe_, false);
#if defined(_WIN32)
    owned_ = std::move(other.owned_);
#endif
  }
  return *this;
}

}  // namespace privelet::common
