#include "common/hash.hpp"

namespace qccd
{

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint64_t state = seed;
    for (size_t i = 0; i < len; ++i)
        state = hash_detail::fnvFold(state, bytes[i]);
    return state;
}

std::string
Digest128::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (const uint64_t word : {hi, lo})
        for (int shift = 60; shift >= 0; shift -= 4)
            out.push_back(digits[(word >> shift) & 0xF]);
    return out;
}

void
StableHash::bytes(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        hi_ = hash_detail::fnvFold(hi_, p[i]);
        lo_ = hash_detail::fnvFold(lo_, p[i]);
    }
}

void
StableHash::str(const std::string &value)
{
    unsigned char buf[9] = {hash_detail::kTagStr};
    const auto len = static_cast<uint64_t>(value.size());
    for (int i = 0; i < 8; ++i)
        buf[1 + i] = static_cast<unsigned char>(len >> (8 * i));
    bytes(buf, sizeof buf);
    bytes(value.data(), value.size());
}

} // namespace qccd
