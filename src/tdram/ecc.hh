/**
 * @file
 * Error-correcting code for TDRAM's data path (§III-C3).
 *
 * TDRAM keeps *separate* ECC for tags and data. Data uses the
 * baseline HBM3 scheme, modelled here as the classic SECDED(72,64)
 * Hamming+parity code at 64-bit granularity (single-error correct,
 * double-error detect). The tags' own on-die code is not modelled.
 *
 * The codec is functional (used by reliability tests and the
 * fault-injection harness), not on the timing path: correction
 * latency is part of the tag-mat access time in Table III.
 */

#ifndef TSIM_TDRAM_ECC_HH
#define TSIM_TDRAM_ECC_HH

#include <cstdint>

namespace tsim
{

/** Outcome of a decode. */
enum class EccStatus : std::uint8_t
{
    Ok,            ///< no error present
    Corrected,     ///< single-bit error fixed
    Uncorrectable, ///< double-bit (or worse) error detected
};

/**
 * SECDED Hamming code over a 64-bit payload (72,64).
 *
 * Layout: 7 Hamming parity bits + 1 overall parity bit, the standard
 * DRAM sideband arrangement.
 */
class Secded64
{
  public:
    struct Word
    {
        std::uint64_t data = 0;
        std::uint8_t check = 0;  ///< 8 redundant bits
    };

    /** Encode a payload. */
    static Word encode(std::uint64_t data);

    /**
     * Decode in place, correcting a single flipped bit anywhere in
     * the 72-bit word (payload or check bits).
     */
    static EccStatus decode(Word &w);

    /** Flip one bit of the codeword (fault injection). @p pos < 72;
     *  positions 64..71 hit the check bits. */
    static void injectError(Word &w, unsigned pos);

  private:
    static std::uint8_t syndrome(const Word &w);
    static bool overallParity(const Word &w);
};

} // namespace tsim

#endif // TSIM_TDRAM_ECC_HH
