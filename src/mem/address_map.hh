/**
 * @file
 * DRAM address interleaving.
 *
 * Implements the RoCoRaBaCh mapping used in Table III: reading the
 * mnemonic from most- to least-significant address bits gives
 * Row : Column : Rank : Bank : Channel, i.e., consecutive cache lines
 * interleave across channels first, then banks, so streaming accesses
 * exploit all channel/bank parallelism.
 */

#ifndef TSIM_MEM_ADDRESS_MAP_HH
#define TSIM_MEM_ADDRESS_MAP_HH

#include <bit>
#include <cstdint>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace tsim
{

/** Decoded DRAM coordinates for one line-sized access. */
struct DramCoord
{
    unsigned channel = 0;
    unsigned bank = 0;   ///< flat bank id (bank group folded in)
    std::uint64_t row = 0;
    std::uint64_t col = 0;
};

/**
 * Geometry plus RoCoRaBaCh decode for a memory device.
 *
 * Channel/bank counts must be powers of two. Ranks are folded into
 * the bank dimension (HBM stacks present a flat bank space to the
 * controller; the paper pairs banks across bank groups into one
 * logical bank, which is the unit modelled here).
 */
class AddressMap
{
  public:
    AddressMap() = default;

    /**
     * @param capacity_bytes Total device capacity.
     * @param channels       Number of independent channels.
     * @param banks          Logical banks per channel.
     * @param row_bytes      Bytes per row per bank (page size).
     */
    AddressMap(std::uint64_t capacity_bytes, unsigned channels,
               unsigned banks, std::uint64_t row_bytes)
        : _channels(channels), _banks(banks)
    {
        fatal_if(!validGeometry(capacity_bytes, channels, banks, row_bytes),
                 "%llu B do not split into %u channels x %u banks of "
                 "whole %llu B rows (each a power of two)",
                 (unsigned long long)capacity_bytes, channels, banks,
                 (unsigned long long)row_bytes);
        _linesPerRow = row_bytes / lineBytes;
        std::uint64_t lines = capacity_bytes / lineBytes;
        _rowsPerBank = capacity_bytes / channels / banks / row_bytes;
        _lineMask = lines - 1;
        _chanShift = static_cast<unsigned>(std::countr_zero(channels));
        _bankShift = static_cast<unsigned>(std::countr_zero(banks));
        _colShift =
            static_cast<unsigned>(std::countr_zero(_linesPerRow));
    }

    /**
     * The constructor's rule: every dimension a power of two, a row
     * of at least one line, and at least one row per bank.
     */
    static constexpr bool
    validGeometry(std::uint64_t capacity_bytes, unsigned channels,
                  unsigned banks, std::uint64_t row_bytes)
    {
        return isPow2(capacity_bytes) && isPow2(channels) &&
               isPow2(banks) && isPow2(row_bytes) &&
               row_bytes >= lineBytes &&
               capacity_bytes / channels / banks / row_bytes > 0;
    }

    /** The rule every dimension obeys: nonzero and a power of two. */
    static constexpr bool
    isPow2(std::uint64_t v)
    {
        return v && !(v & (v - 1));
    }

    unsigned channels() const { return _channels; }
    unsigned banks() const { return _banks; }
    std::uint64_t rowsPerBank() const { return _rowsPerBank; }

    /**
     * Decode a byte address (RoCoRaBaCh, line-interleaved). Every
     * dimension is a power of two, so each div/mod is a shift/mask.
     */
    DramCoord
    decode(Addr addr) const
    {
        std::uint64_t line = (addr / lineBytes) & _lineMask;
        DramCoord c;
        c.channel = static_cast<unsigned>(line & (_channels - 1));
        line >>= _chanShift;
        c.bank = static_cast<unsigned>(line & (_banks - 1));
        line >>= _bankShift;
        c.col = line & (_linesPerRow - 1);
        c.row = line >> _colShift;
        return c;
    }

  private:
    unsigned _channels = 1;
    unsigned _banks = 1;
    std::uint64_t _linesPerRow = 1;
    std::uint64_t _rowsPerBank = 1;
    std::uint64_t _lineMask = 0;
    unsigned _chanShift = 0;
    unsigned _bankShift = 0;
    unsigned _colShift = 0;
};

} // namespace tsim

#endif // TSIM_MEM_ADDRESS_MAP_HH
