#include "sim/device_state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qccd
{

DeviceState::DeviceState(const Topology &topo, int num_ions)
    : topo_(topo), chains_(topo.trapCount()),
      ionTrap_(num_ions, kInvalidId), ionPos_(num_ions, kInvalidId),
      ionPayload_(num_ions, kInvalidId), qubitIon_(num_ions, kInvalidId),
      flightEnergy_(num_ions, 0), trapRes_(topo.trapCount()),
      edgeRes_(topo.edgeCount()), nodeRes_(topo.nodeCount())
{
    fatalUnless(num_ions >= 1, "device state needs at least one ion");
    if (num_ions > topo.totalCapacity())
        throw ConfigError("application does not fit: " +
                          std::to_string(num_ions) +
                          " qubits > device capacity " +
                          std::to_string(topo.totalCapacity()));
}

void
DeviceState::reset()
{
    for (ChainState &c : chains_) {
        c.ions.clear();
        c.energy = 0;
    }
    std::fill(ionTrap_.begin(), ionTrap_.end(), kInvalidId);
    std::fill(ionPos_.begin(), ionPos_.end(), kInvalidId);
    std::fill(ionPayload_.begin(), ionPayload_.end(), kInvalidId);
    std::fill(qubitIon_.begin(), qubitIon_.end(), kInvalidId);
    std::fill(flightEnergy_.begin(), flightEnergy_.end(), 0.0);
    std::fill(trapRes_.begin(), trapRes_.end(), ResourceTimeline{});
    std::fill(edgeRes_.begin(), edgeRes_.end(), ResourceTimeline{});
    std::fill(nodeRes_.begin(), nodeRes_.end(), ResourceTimeline{});
    maxEnergySeen_ = 0;
}

bool
DeviceState::fits(const Topology &topo, int num_ions) const
{
    return &topo == &topo_ && num_ions == numIons() &&
           chains_.size() == static_cast<size_t>(topo.trapCount()) &&
           trapRes_.size() == static_cast<size_t>(topo.trapCount()) &&
           edgeRes_.size() == static_cast<size_t>(topo.edgeCount()) &&
           nodeRes_.size() == static_cast<size_t>(topo.nodeCount());
}

void
DeviceState::reindexChain(TrapId t)
{
    const auto &ions = chains_[t].ions;
    for (size_t i = 0; i < ions.size(); ++i)
        ionPos_[ions[i]] = static_cast<int>(i);
}

bool
DeviceState::positionIndexConsistent() const
{
    for (TrapId t = 0; t < topo_.trapCount(); ++t) {
        const auto &ions = chains_[t].ions;
        for (size_t i = 0; i < ions.size(); ++i) {
            if (ionTrap_[ions[i]] != t)
                return false;
            if (ionPos_[ions[i]] != static_cast<int>(i))
                return false;
        }
    }
    for (IonId ion = 0; ion < numIons(); ++ion)
        if (ionTrap_[ion] == kInvalidId && ionPos_[ion] != kInvalidId)
            return false;
    return true;
}

void
DeviceState::placeIon(TrapId t, IonId ion, QubitId payload)
{
    panicUnless(t >= 0 && t < topo_.trapCount(), "trap out of range");
    panicUnless(ion >= 0 && ion < numIons(), "ion out of range");
    panicUnless(ionTrap_[ion] == kInvalidId && ionPayload_[ion] ==
                kInvalidId, "ion already placed");
    ChainState &c = chains_[t];
    fatalUnless(c.size() < topo_.node(topo_.trapNode(t)).capacity,
                "initial layout exceeds trap capacity");
    c.ions.push_back(ion);
    ionTrap_[ion] = t;
    ionPos_[ion] = c.size() - 1;
    ionPayload_[ion] = payload;
    qubitIon_[payload] = ion;
    QCCD_DBG_ASSERT(positionIndexConsistent(),
                    "placeIon broke the position index");
}

void
DeviceState::setEnergy(TrapId t, Quanta e)
{
    panicUnless(t >= 0 && t < topo_.trapCount(), "trap out of range");
    panicUnless(e >= 0, "chain energy cannot be negative");
    chains_[t].energy = e;
    maxEnergySeen_ = std::max(maxEnergySeen_, e);
}

void
DeviceState::swapPayloads(IonId a, IonId b)
{
    panicUnless(a != b, "cannot swap an ion's payload with itself");
    std::swap(ionPayload_[a], ionPayload_[b]);
    qubitIon_[ionPayload_[a]] = a;
    qubitIon_[ionPayload_[b]] = b;
    QCCD_DBG_ASSERT(qubitIon_[ionPayload_[a]] == a &&
                        qubitIon_[ionPayload_[b]] == b,
                    "swapPayloads broke the qubit->ion index");
}

IonId
DeviceState::swapToward(IonId ion, ChainEnd end)
{
    const TrapId t = trapOf(ion);
    panicUnless(t != kInvalidId, "ion is in flight");
    auto &ions = chains_[t].ions;
    const int pos = positionOf(ion);
    const int next = end == ChainEnd::Left ? pos - 1 : pos + 1;
    panicUnless(next >= 0 && next < static_cast<int>(ions.size()),
                "ion swap would fall off the chain end");
    std::swap(ions[pos], ions[next]);
    ionPos_[ions[pos]] = pos;
    ionPos_[ions[next]] = next;
    QCCD_DBG_ASSERT(positionIndexConsistent(),
                    "swapToward broke the position index");
    return ions[pos];
}

IonId
DeviceState::detachEnd(TrapId t, ChainEnd end, Quanta ion_energy)
{
    ChainState &c = chains_[t];
    panicUnless(c.size() >= 1, "cannot split an empty chain");
    IonId ion = kInvalidId;
    if (end == ChainEnd::Left) {
        ion = c.ions.front();
        c.ions.erase(c.ions.begin());
        reindexChain(t);
    } else {
        ion = c.ions.back();
        c.ions.pop_back();
    }
    ionTrap_[ion] = kInvalidId;
    ionPos_[ion] = kInvalidId;
    flightEnergy_[ion] = ion_energy;
    maxEnergySeen_ = std::max(maxEnergySeen_, ion_energy);
    QCCD_DBG_ASSERT(positionIndexConsistent(),
                    "detachEnd broke the position index");
    return ion;
}

void
DeviceState::attachEnd(TrapId t, ChainEnd end, IonId ion)
{
    panicUnless(ionTrap_[ion] == kInvalidId,
                "attachEnd requires an in-flight ion");
    ChainState &c = chains_[t];
    if (end == ChainEnd::Left) {
        c.ions.insert(c.ions.begin(), ion);
        ionTrap_[ion] = t;
        reindexChain(t);
    } else {
        c.ions.push_back(ion);
        ionTrap_[ion] = t;
        ionPos_[ion] = c.size() - 1;
    }
    QCCD_DBG_ASSERT(positionIndexConsistent(),
                    "attachEnd broke the position index");
}

Quanta
DeviceState::flightEnergy(IonId ion) const
{
    panicUnless(ionTrap_[ion] == kInvalidId, "ion is not in flight");
    return flightEnergy_[ion];
}

void
DeviceState::setFlightEnergy(IonId ion, Quanta e)
{
    panicUnless(ionTrap_[ion] == kInvalidId, "ion is not in flight");
    panicUnless(e >= 0, "ion energy cannot be negative");
    flightEnergy_[ion] = e;
    maxEnergySeen_ = std::max(maxEnergySeen_, e);
}

ChainEnd
DeviceState::portEnd(TrapId t, EdgeId e) const
{
    const NodeId trap_node = topo_.trapNode(t);
    const TopoEdge &edge = topo_.edge(e);
    panicUnless(edge.a == trap_node || edge.b == trap_node,
                "edge is not incident to trap");
    return edge.other(trap_node) < trap_node ? ChainEnd::Left
                                             : ChainEnd::Right;
}

ResourceTimeline &
DeviceState::junctionTimeline(NodeId n)
{
    panicUnless(n >= 0 && n < topo_.nodeCount(), "node out of range");
    panicUnless(topo_.node(n).kind == NodeKind::Junction,
                "node is not a junction");
    return nodeRes_[n];
}

} // namespace qccd
