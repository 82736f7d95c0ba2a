#include "simpi/pack.hpp"

namespace trinity::simpi {

namespace {

void append_u64(std::vector<std::byte>& buf, std::uint64_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

std::uint64_t read_u64(const std::vector<std::byte>& buf, std::size_t& pos) {
  if (pos + sizeof(std::uint64_t) > buf.size()) {
    throw std::runtime_error("pack: truncated length prefix");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof(v));
  pos += sizeof(v);
  return v;
}

// Unpacks one pack_strings() frame starting at `pos`, appending to `out`.
void unpack_frame(const std::vector<std::byte>& buf, std::size_t& pos,
                  std::vector<std::string>& out) {
  const std::uint64_t count = read_u64(buf, pos);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = read_u64(buf, pos);
    // pos <= buf.size() after read_u64, so the subtraction cannot wrap.
    if (len > buf.size() - pos) throw std::runtime_error("pack: truncated string payload");
    out.emplace_back(reinterpret_cast<const char*>(buf.data() + pos),
                     static_cast<std::size_t>(len));
    pos += len;
  }
}

}  // namespace

std::vector<std::byte> pack_strings(const std::vector<std::string>& strings) {
  std::size_t total = sizeof(std::uint64_t);
  for (const auto& s : strings) total += sizeof(std::uint64_t) + s.size();
  std::vector<std::byte> buf;
  buf.reserve(total);
  append_u64(buf, strings.size());
  for (const auto& s : strings) {
    append_u64(buf, s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf.insert(buf.end(), p, p + s.size());
  }
  return buf;
}

std::vector<std::string> unpack_strings(const std::vector<std::byte>& buffer) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  unpack_frame(buffer, pos, out);
  if (pos != buffer.size()) throw std::runtime_error("pack: trailing bytes after frame");
  return out;
}

std::vector<std::string> unpack_string_pool(const std::vector<std::byte>& buffer) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < buffer.size()) unpack_frame(buffer, pos, out);
  return out;
}

}  // namespace trinity::simpi
