/**
 * @file
 * Unified event bus (DESIGN.md §13).
 *
 * Every protocol-visible occurrence in the channel scheduler and the
 * DRAM-cache front-end is announced once:
 *
 *     emit(*this, ActRdIssuedEv{.tick = now, .addr = req.addr, ...});
 *
 * An event is a plain struct that names its TraceKind, carries the
 * record payload (tick/addr/bank/aux/extra), and optionally defines
 * stats(Owner&) applying the statistics that belong to the site.
 * Stats-only occurrences set `static constexpr bool traced = false`
 * and skip the payload entirely.
 *
 * emit() applies the event's stats, then records it into the owner's
 * TraceBuffer, then feeds it to the owner's ProtocolChecker. Tracing
 * and checking are chosen per run: System sets or leaves null the
 * owner's `traceBuf` (SystemConfig::tracePath) and `checker`
 * (SystemConfig::checkProtocol), so an unused consumer costs one
 * null test. The order is fixed so floating-point accumulation per
 * site is deterministic and golden outputs stay byte-identical.
 *
 * The owner is duck-typed: a traced event needs `traceBuf`
 * (TraceBuffer*), `checker` (ProtocolChecker*) and `checkChannel`
 * members; stats need whatever the event's stats() method touches.
 */

#ifndef TSIM_SIM_EVENT_BUS_HH
#define TSIM_SIM_EVENT_BUS_HH

#include "check/check.hh"
#include "trace/trace.hh"

namespace tsim
{

/** True unless the event opts out with `traced = false`. */
template <typename Ev>
constexpr bool
eventTraced()
{
    if constexpr (requires { Ev::traced; })
        return Ev::traced;
    else
        return true;
}

/** Emit one event from @p owner: stats, then trace, then check. */
template <typename Ev, typename Owner>
inline void
emit(Owner &owner, const Ev &ev)
{
    if constexpr (requires { ev.stats(owner); })
        ev.stats(owner);
    if constexpr (eventTraced<Ev>()) {
        if (owner.traceBuf) {
            owner.traceBuf->record(Ev::kind, ev.tick, ev.addr, ev.bank,
                                   ev.aux, ev.extra);
        }
        if (owner.checker) {
            owner.checker->onEvent(owner.checkChannel, Ev::kind,
                                   ev.tick, ev.addr, ev.bank, ev.aux,
                                   ev.extra);
        }
    }
}

} // namespace tsim

#endif // TSIM_SIM_EVENT_BUS_HH
