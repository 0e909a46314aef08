/**
 * @file
 * Maximum-length linear feedback shift registers.
 *
 * The paper's microbenchmark generator (KernelBenchmarks.jl) uses a
 * maximum-length LFSR to generate pseudo-random array indices so that
 * "each address is touched exactly once (i.e. no repeats)". We reproduce
 * that: a Galois LFSR of width w cycles through all 2^w - 1 non-zero
 * states before repeating. Index 0 is emitted manually by the pattern
 * layer so the full index range [0, n) is covered for power-of-two n.
 */

#ifndef NVSIM_CORE_LFSR_HH
#define NVSIM_CORE_LFSR_HH

#include <cstdint>

#include "core/logging.hh"

namespace nvsim
{

/**
 * Galois LFSR with maximum-length taps for widths 2..48.
 *
 * The sequence visits every value in [1, 2^width) exactly once per
 * period. The state never becomes zero.
 */
class Lfsr
{
  public:
    /**
     * @param width register width in bits (2..48)
     * @param seed  initial state; only the low @p width bits are used and
     *              a zero state is mapped to 1
     */
    explicit Lfsr(unsigned width, std::uint64_t seed = 1);

    /** Advance one step and return the new state (never zero). */
    std::uint64_t next();

    /** Current state without advancing. */
    std::uint64_t state() const { return state_; }

    /** Period of the sequence: 2^width - 1. */
    std::uint64_t period() const { return (1ull << width_) - 1; }

    /** Maximum-length tap mask for a given width (2..48). */
    static std::uint64_t tapMask(unsigned width);

    /** Smallest width whose period covers indices [1, n). */
    static unsigned widthFor(std::uint64_t n);

  private:
    unsigned width_;
    std::uint64_t taps_;
    std::uint64_t mask_;
    std::uint64_t state_;
};

} // namespace nvsim

#endif // NVSIM_CORE_LFSR_HH
