#include "common/bitops.hpp"

#include "common/logging.hpp"

namespace hammer::common {

int
minHammingDistance(Bits x, const std::vector<Bits> &targets)
{
    require(!targets.empty(), "minHammingDistance: no targets");
    int best = 64;
    for (Bits t : targets) {
        const int d = hammingDistance(x, t);
        if (d < best)
            best = d;
    }
    return best;
}

std::string
toBitstring(Bits x, int n)
{
    char buf[64];
    return std::string(buf, writeBitstring(x, n, buf));
}

char *
writeBitstring(Bits x, int n, char *out)
{
    require(n >= 1 && n <= 64, "toBitstring: n out of range");
    for (int i = 0; i < n; ++i)
        out[n - 1 - i] = static_cast<char>('0' + ((x >> i) & 1u));
    return out + n;
}

Bits
fromBitstring(const std::string &s)
{
    require(!s.empty() && s.size() <= 64, "fromBitstring: bad length");
    Bits x = 0;
    const int n = static_cast<int>(s.size());
    for (int i = 0; i < n; ++i) {
        const char c = s[static_cast<std::size_t>(i)];
        require(c == '0' || c == '1', "fromBitstring: non-binary char");
        if (c == '1')
            x |= 1ull << (n - 1 - i);
    }
    return x;
}

namespace {

/** Recursively choose @p d bit positions out of [start, n). */
void
enumerate(Bits center, int n, int d, int start, Bits flips,
          std::vector<Bits> &out)
{
    if (d == 0) {
        out.push_back(center ^ flips);
        return;
    }
    for (int i = start; i <= n - d; ++i)
        enumerate(center, n, d - 1, i + 1, flips | (1ull << i), out);
}

} // namespace

std::vector<Bits>
neighborsAtDistance(Bits center, int n, int d)
{
    require(n >= 1 && n <= 64, "neighborsAtDistance: n out of range");
    require(d >= 0 && d <= n, "neighborsAtDistance: d out of range");
    std::vector<Bits> out;
    out.reserve(static_cast<std::size_t>(binomial(n, d)));
    enumerate(center, n, d, 0, 0, out);
    return out;
}

double
binomial(int n, int k)
{
    if (k < 0 || k > n)
        return 0.0;
    if (k > n - k)
        k = n - k;
    double result = 1.0;
    for (int i = 1; i <= k; ++i)
        result = result * static_cast<double>(n - k + i) / i;
    return result;
}

} // namespace hammer::common
