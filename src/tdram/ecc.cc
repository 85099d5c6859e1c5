#include "tdram/ecc.hh"

namespace tsim
{

namespace
{

/**
 * Generic extended-Hamming SECDED machinery.
 *
 * Codeword positions are 1-indexed; parity bits sit at power-of-two
 * positions; data bits fill the rest in order. An overall parity bit
 * covers the whole codeword and disambiguates single from double
 * errors. The check field packs [hamming parities, overall] LSB
 * first.
 */
template <unsigned DataBits, unsigned ParityBits>
struct Hamming
{
    static constexpr unsigned codeBits = DataBits + ParityBits;

    static bool
    isPow2(unsigned v)
    {
        return v && !(v & (v - 1));
    }

    /** Spread payload bits into the codeword (parity slots zero). */
    static void
    place(std::uint64_t data, bool (&cw)[codeBits + 1])
    {
        unsigned d = 0;
        for (unsigned pos = 1; pos <= codeBits; ++pos) {
            if (isPow2(pos)) {
                cw[pos] = false;
            } else {
                cw[pos] = (data >> d) & 1;
                ++d;
            }
        }
    }

    /** Gather payload bits back out of the codeword. */
    static std::uint64_t
    gather(const bool (&cw)[codeBits + 1])
    {
        std::uint64_t data = 0;
        unsigned d = 0;
        for (unsigned pos = 1; pos <= codeBits; ++pos) {
            if (!isPow2(pos)) {
                if (cw[pos])
                    data |= 1ULL << d;
                ++d;
            }
        }
        return data;
    }

    static unsigned
    computeSyndrome(const bool (&cw)[codeBits + 1])
    {
        unsigned s = 0;
        for (unsigned pos = 1; pos <= codeBits; ++pos) {
            if (cw[pos])
                s ^= pos;
        }
        return s;
    }

    static std::uint8_t
    encode(std::uint64_t data, bool &overall)
    {
        bool cw[codeBits + 1] = {};
        place(data, cw);
        const unsigned s = computeSyndrome(cw);
        // Setting parity bit p makes the total syndrome zero.
        std::uint8_t parities = 0;
        unsigned idx = 0;
        for (unsigned pos = 1; pos <= codeBits; pos <<= 1) {
            if (s & pos) {
                cw[pos] = true;
                parities |= std::uint8_t(1u << idx);
            }
            ++idx;
        }
        bool par = false;
        for (unsigned pos = 1; pos <= codeBits; ++pos)
            par ^= cw[pos];
        overall = par;
        return parities;
    }

    /**
     * @param data    In/out payload.
     * @param check   In/out packed [parities..., overall] field.
     * @return status after potential correction.
     */
    static EccStatus
    decode(std::uint64_t &data, std::uint8_t &check)
    {
        bool cw[codeBits + 1] = {};
        place(data, cw);
        unsigned idx = 0;
        for (unsigned pos = 1; pos <= codeBits; pos <<= 1) {
            cw[pos] = (check >> idx) & 1;
            ++idx;
        }
        const bool stored_overall = (check >> idx) & 1;

        const unsigned syndrome = computeSyndrome(cw);
        bool par = stored_overall;
        for (unsigned pos = 1; pos <= codeBits; ++pos)
            par ^= cw[pos];
        // par == true means the overall parity check fails.

        if (syndrome == 0 && !par)
            return EccStatus::Ok;
        if (syndrome == 0 && par) {
            // The overall parity bit itself flipped.
            check ^= std::uint8_t(1u << idx);
            return EccStatus::Corrected;
        }
        if (!par)
            return EccStatus::Uncorrectable;  // double error
        if (syndrome > codeBits)
            return EccStatus::Uncorrectable;

        // Single error at codeword position `syndrome`: fix it.
        cw[syndrome] = !cw[syndrome];
        data = gather(cw);
        unsigned j = 0;
        std::uint8_t parities = 0;
        for (unsigned pos = 1; pos <= codeBits; pos <<= 1) {
            if (cw[pos])
                parities |= std::uint8_t(1u << j);
            ++j;
        }
        check = static_cast<std::uint8_t>(
            parities | (stored_overall ? (1u << j) : 0));
        return EccStatus::Corrected;
    }
};

using Ham64 = Hamming<64, 7>;

} // namespace

Secded64::Word
Secded64::encode(std::uint64_t data)
{
    Word w;
    w.data = data;
    bool overall = false;
    const std::uint8_t parities = Ham64::encode(data, overall);
    w.check = static_cast<std::uint8_t>(parities |
                                        (overall ? (1u << 7) : 0));
    return w;
}

EccStatus
Secded64::decode(Word &w)
{
    std::uint64_t data = w.data;
    std::uint8_t check = w.check;
    const EccStatus st = Ham64::decode(data, check);
    w.data = data;
    w.check = check;
    return st;
}

void
Secded64::injectError(Word &w, unsigned pos)
{
    if (pos < 64)
        w.data ^= 1ULL << pos;
    else
        w.check ^= std::uint8_t(1u << (pos - 64));
}

} // namespace tsim
