/**
 * @file
 * Mutable runtime state of a QCCD device during scheduling/simulation.
 *
 * Tracks, per trap, the spatially ordered ion chain (index 0 is the
 * "left" end) and its motional energy; per ion, its holding trap (or
 * in-flight status) and the logical qubit payload it carries; and the
 * exclusive timelines of every trap, edge and junction resource.
 *
 * Port convention: for a trap node t and incident edge e, the edge
 * attaches to the left end when the edge's other endpoint has a smaller
 * node id, and to the right end otherwise. Builders create linear traps
 * in left-to-right order and junctions after all traps, so linear traps
 * see their lower neighbour on the left, and grid traps reach their
 * junction on the right.
 */

#ifndef QCCD_SIM_DEVICE_STATE_HPP
#define QCCD_SIM_DEVICE_STATE_HPP

#include <vector>

#include "arch/topology.hpp"
#include "common/error.hpp"
#include "sim/resources.hpp"

namespace qccd
{

/** Which end of a chain an operation touches. */
enum class ChainEnd
{
    Left,
    Right
};

/** Ordered ion chain plus motional energy for one trap. */
struct ChainState
{
    std::vector<IonId> ions; ///< index 0 = left end
    Quanta energy = 0;

    int size() const { return static_cast<int>(ions.size()); }
};

/** Mutable device state; created from a topology and an ion count. */
class DeviceState
{
  public:
    /**
     * @param topo device topology (must outlive this object)
     * @param num_ions ions (= program qubits) to track
     */
    DeviceState(const Topology &topo, int num_ions);

    /**
     * Return to the freshly constructed state (no ions placed, all
     * energies and timelines zero) without releasing any storage, so a
     * pooled DeviceState can be reused across schedule passes.
     */
    void reset();

    /**
     * True when this state's storage is sized exactly for @p topo and
     * @p num_ions — the precondition for reusing it via reset()
     * instead of reconstructing (see SchedulerScratch).
     */
    bool fits(const Topology &topo, int num_ions) const;

    const Topology &topology() const { return topo_; }
    int numIons() const { return static_cast<int>(ionTrap_.size()); }

    /** Place ion @p ion carrying @p payload at the right end of @p t. */
    void placeIon(TrapId t, IonId ion, QubitId payload);

    const ChainState &chain(TrapId t) const
    {
        panicUnless(t >= 0 && t < topo_.trapCount(), "trap out of range");
        return chains_[t];
    }
    Quanta energy(TrapId t) const { return chain(t).energy; }
    void setEnergy(TrapId t, Quanta e);

    /** Trap currently holding @p ion, or kInvalidId while in flight. */
    TrapId trapOf(IonId ion) const
    {
        panicUnless(ion >= 0 && ion < numIons(), "ion out of range");
        return ionTrap_[ion];
    }

    /** Position of @p ion within its chain. @pre not in flight */
    int positionOf(IonId ion) const
    {
        const TrapId t = trapOf(ion);
        panicUnless(t != kInvalidId, "ion is in flight");
        const int pos = ionPos_[ion];
        panicUnless(pos >= 0 && pos < chains_[t].size() &&
                        chains_[t].ions[pos] == ion,
                    "ion/trap bookkeeping out of sync");
        return pos;
    }

    /** Logical qubit carried by @p ion. */
    QubitId payloadOf(IonId ion) const
    {
        panicUnless(ion >= 0 && ion < numIons(), "ion out of range");
        return ionPayload_[ion];
    }

    /** Ion currently carrying logical qubit @p q. */
    IonId ionOf(QubitId q) const
    {
        panicUnless(q >= 0 && q < static_cast<int>(qubitIon_.size()),
                    "qubit out of range");
        return qubitIon_[q];
    }

    /** Exchange the logical payloads of two ions (gate-based swap). */
    void swapPayloads(IonId a, IonId b);

    /** Physically exchange @p ion with its chain neighbour toward
     *  @p end (ion-swap hop). @return the neighbour ion */
    IonId swapToward(IonId ion, ChainEnd end);

    /**
     * Remove the ion at @p end of trap @p t (split bookkeeping); the
     * ion becomes in-flight with energy @p ion_energy.
     *
     * @return the detached ion
     */
    IonId detachEnd(TrapId t, ChainEnd end, Quanta ion_energy);

    /** Attach in-flight @p ion at @p end of trap @p t. */
    void attachEnd(TrapId t, ChainEnd end, IonId ion);

    /** Energy carried by an in-flight ion. */
    Quanta flightEnergy(IonId ion) const;
    void setFlightEnergy(IonId ion, Quanta e);

    /** The chain end that trap @p t's port for edge @p e sits on. */
    ChainEnd portEnd(TrapId t, EdgeId e) const;

    /** Free slots remaining in trap @p t given its capacity. */
    int freeSlots(TrapId t) const
    {
        return topo_.node(topo_.trapNode(t)).capacity - chain(t).size();
    }

    /** Maximum chain energy observed so far across all traps. */
    Quanta maxEnergySeen() const { return maxEnergySeen_; }

    /**
     * True when the per-ion position index agrees with every chain's
     * ion order (test invariant; positionOf answers from the index in
     * O(1) instead of scanning the chain).
     */
    bool positionIndexConsistent() const;

    /** Resource timelines. @{ */
    ResourceTimeline &trapTimeline(TrapId t)
    {
        panicUnless(t >= 0 && t < topo_.trapCount(), "trap out of range");
        return trapRes_[t];
    }
    ResourceTimeline &edgeTimeline(EdgeId e)
    {
        panicUnless(e >= 0 && e < topo_.edgeCount(), "edge out of range");
        return edgeRes_[e];
    }
    ResourceTimeline &junctionTimeline(NodeId n);
    /** @} */

  private:
    const Topology &topo_;
    std::vector<ChainState> chains_;          // per trap
    std::vector<TrapId> ionTrap_;             // per ion; -1 = in flight
    std::vector<int> ionPos_;                 // per ion chain position
    std::vector<QubitId> ionPayload_;         // per ion
    std::vector<IonId> qubitIon_;             // per qubit
    std::vector<Quanta> flightEnergy_;        // per ion, valid in flight
    std::vector<ResourceTimeline> trapRes_;
    std::vector<ResourceTimeline> edgeRes_;
    std::vector<ResourceTimeline> nodeRes_;   // junctions use node ids
    Quanta maxEnergySeen_ = 0;

    /** Rewrite the position index of every ion in trap @p t's chain. */
    void reindexChain(TrapId t);
};

} // namespace qccd

#endif // QCCD_SIM_DEVICE_STATE_HPP
