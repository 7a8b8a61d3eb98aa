/**
 * @file
 * Initial qubit-to-trap mapping (paper Section VI).
 *
 * The greedy heuristic orders program qubits by first use in the gate
 * sequence and packs them into traps in topology order, leaving buffer
 * slots in each trap for incoming shuttles. When the application is too
 * large for the requested buffer, the buffer shrinks adaptively (e.g.
 * SquareRoot-78 on six 14-ion traps only leaves one slot per trap).
 */

#ifndef QCCD_COMPILER_MAPPING_HPP
#define QCCD_COMPILER_MAPPING_HPP

#include <vector>

#include "arch/topology.hpp"
#include "circuit/circuit.hpp"

namespace qccd
{

/** Initial placement policy. */
enum class MappingPolicy
{
    /** Pack traps to capacity minus buffer in first-use order (the
     *  paper's greedy heuristic). */
    Packed,

    /** Spread qubits evenly across all traps, preserving first-use
     *  order. Trades intra-trap locality for shorter chains and more
     *  spare capacity per trap. */
    Balanced
};

/** Parse a policy name; throws ConfigError on bad input. */
MappingPolicy mappingPolicyFromName(const std::string &name);

/** Result of the initial mapping. */
struct InitialMapping
{
    /** trapOf[q] = trap holding program qubit q at program start. */
    std::vector<TrapId> trapOf;

    /** chainOrder[t] = qubits of trap t in left-to-right chain order. */
    std::vector<std::vector<QubitId>> chainOrder;

    /** Buffer slots per trap actually achieved. */
    int effectiveBuffer = 0;
};

/**
 * Compute the greedy first-use mapping.
 *
 * @param circuit program to map
 * @param topo target device
 * @param buffer_slots requested free slots per trap (paper uses 2)
 * @param policy placement policy (default: the paper's packing)
 * @throws ConfigError if the program has more qubits than the device
 */
InitialMapping mapQubits(const Circuit &circuit, const Topology &topo,
                         int buffer_slots,
                         MappingPolicy policy = MappingPolicy::Packed);

/**
 * mapQubits over a precomputed first-use @p order (what
 * firstUseOrder() returns for the program; a SchedulePlan keeps it),
 * so the schedules of one circuit scan its gates once.
 *
 * @param order every program qubit exactly once, in placement order
 * @throws ConfigError if the program has more qubits than the device
 */
InitialMapping mapQubitsInOrder(const std::vector<QubitId> &order,
                                const Topology &topo, int buffer_slots,
                                MappingPolicy policy = MappingPolicy::Packed);

/** Program qubits ordered by first use (then index for unused ones). */
std::vector<QubitId> firstUseOrder(const Circuit &circuit);

} // namespace qccd

#endif // QCCD_COMPILER_MAPPING_HPP
