#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

namespace ebrc::obs {

std::unique_ptr<FlightRecorder> FlightRecorder::create(const std::string& path,
                                                       std::size_t capacity) {
  if (capacity == 0) capacity = kDefaultCapacity;
  capacity = std::bit_ceil(capacity);
  if (capacity > (1u << 24)) capacity = 1u << 24;  // 256 MiB hard cap

  const std::size_t len = sizeof(Header) + capacity * sizeof(sim::KernelRing::Record);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  if (::ftruncate(fd, static_cast<off_t>(len)) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* map = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file contents reachable
  if (map == MAP_FAILED) return nullptr;

  auto* hdr = static_cast<Header*>(map);
  std::memset(hdr, 0, sizeof(Header));
  hdr->magic = kMagic;
  hdr->version = kVersion;
  hdr->capacity = static_cast<std::uint32_t>(capacity);
  hdr->cursor = 0;

  sim::KernelRing ring;
  ring.records = reinterpret_cast<sim::KernelRing::Record*>(static_cast<char*>(map) +
                                                            sizeof(Header));
  ring.mask = static_cast<std::uint32_t>(capacity - 1);
  ring.cursor = &hdr->cursor;
  return std::unique_ptr<FlightRecorder>(new FlightRecorder(map, len, ring));
}

FlightRecorder::~FlightRecorder() { ::munmap(map_, map_len_); }

bool FlightRecorder::dump_to_text(const std::string& ring_path, const std::string& out_path) {
  std::ifstream in(ring_path, std::ios::binary);
  if (!in) return false;
  Header hdr{};
  if (!in.read(reinterpret_cast<char*>(&hdr), sizeof(hdr))) return false;
  if (hdr.magic != kMagic || hdr.version != kVersion) return false;
  if (hdr.capacity == 0 || (hdr.capacity & (hdr.capacity - 1)) != 0) return false;

  std::vector<sim::KernelRing::Record> recs(hdr.capacity);
  in.read(reinterpret_cast<char*>(recs.data()),
          static_cast<std::streamsize>(recs.size() * sizeof(recs[0])));
  // Accept a short read of the record area (e.g. the worker died before the
  // page made it out) as long as the written tail is covered.
  const auto got = static_cast<std::size_t>(in.gcount()) / sizeof(recs[0]);
  const std::uint64_t kept = hdr.cursor < hdr.capacity ? hdr.cursor : hdr.capacity;
  if (got < (hdr.cursor < hdr.capacity ? hdr.cursor : static_cast<std::uint64_t>(hdr.capacity))) {
    return false;
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) return false;
  out << "flight-recorder v" << hdr.version << " capacity=" << hdr.capacity
      << " executed=" << hdr.cursor << " kept=" << kept << "\n";
  static constexpr const char* kSrc[2] = {"slab", "pinned"};
  char line[128];
  for (std::uint64_t i = 0; i < kept; ++i) {
    const std::uint64_t seq = hdr.cursor - kept + i;  // global event index
    const sim::KernelRing::Record& r = recs[static_cast<std::size_t>(seq & (hdr.capacity - 1))];
    std::snprintf(line, sizeof(line), "#%llu t=%.9f slot=0x%08x src=%s\n",
                  static_cast<unsigned long long>(seq), r.at, r.slot, kSrc[r.src & 1]);
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace ebrc::obs
