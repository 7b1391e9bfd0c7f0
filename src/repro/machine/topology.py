"""NUMA machine topology: sockets, cores and the inter-socket distance matrix.

A :class:`NumaTopology` is a static description of the machine the simulator
models.  It mirrors what the OS exposes through the ACPI SLIT table: one
memory node per socket, a symmetric distance matrix whose diagonal is the
*local* distance (conventionally 10), and a flat list of cores grouped by
socket.

Distances translate into bandwidth via
:meth:`NumaTopology.bandwidth_factor`: accessing memory at distance ``d``
runs at ``local_distance / d`` of the local bandwidth, the usual first-order
reading of a SLIT entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TopologyError

#: Conventional ACPI SLIT local distance.
LOCAL_DISTANCE = 10.0


@dataclass(frozen=True, eq=False)
class NumaTopology:
    """Immutable description of a NUMA machine.

    Parameters
    ----------
    n_sockets:
        Number of sockets; each socket owns exactly one NUMA memory node
        with node id equal to the socket id.
    cores_per_socket:
        Number of cores per socket.  Core ids are dense and grouped:
        core ``c`` belongs to socket ``c // cores_per_socket``.
    distance:
        ``(n_sockets, n_sockets)`` symmetric matrix of SLIT-style distances.
        The diagonal must be the minimum of each row (local is closest).
    node_bandwidth:
        Peak local bandwidth of each memory node, in bytes per simulated
        time unit.  Scalar values are broadcast to all nodes.
    name:
        Human-readable label used in reports.
    """

    n_sockets: int
    cores_per_socket: int
    distance: np.ndarray
    node_bandwidth: np.ndarray
    name: str = "numa-machine"
    _socket_of_core: np.ndarray = field(init=False, repr=False, compare=False)
    _by_distance: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise TopologyError(f"need at least one socket, got {self.n_sockets}")
        if self.cores_per_socket < 1:
            raise TopologyError(
                f"need at least one core per socket, got {self.cores_per_socket}"
            )
        dist = np.asarray(self.distance, dtype=np.float64)
        if dist.shape != (self.n_sockets, self.n_sockets):
            raise TopologyError(
                f"distance matrix shape {dist.shape} does not match "
                f"{self.n_sockets} sockets"
            )
        if not np.allclose(dist, dist.T):
            raise TopologyError("distance matrix must be symmetric")
        if np.any(dist <= 0):
            raise TopologyError("distances must be strictly positive")
        if np.any(np.diag(dist)[:, None] > dist + 1e-12):
            raise TopologyError("local (diagonal) distance must be minimal per row")
        bw = np.broadcast_to(
            np.asarray(self.node_bandwidth, dtype=np.float64), (self.n_sockets,)
        ).copy()
        if np.any(bw <= 0):
            raise TopologyError("node bandwidth must be strictly positive")
        dist = dist.copy()
        dist.setflags(write=False)
        object.__setattr__(self, "distance", dist)
        object.__setattr__(self, "node_bandwidth", bw)
        self.node_bandwidth.setflags(write=False)
        socket_of_core = np.repeat(
            np.arange(self.n_sockets), self.cores_per_socket
        )
        object.__setattr__(self, "_socket_of_core", socket_of_core)
        # Every socket's distance order, sorted once: the steal scan and
        # the fault remap read it per event.
        by_distance = tuple(
            tuple(sorted(range(self.n_sockets), key=lambda s: (row[s], s)))
            for row in dist
        )
        object.__setattr__(self, "_by_distance", by_distance)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Total number of cores in the machine."""
        return self.n_sockets * self.cores_per_socket

    @property
    def n_nodes(self) -> int:
        """Number of NUMA memory nodes (one per socket)."""
        return self.n_sockets

    @property
    def n_resources(self) -> int:
        """Number of bandwidth resources the rate solver arbitrates.

        On a single box this is exactly ``n_nodes`` (one memory controller
        per socket).  :class:`ClusterTopology` appends one NIC resource per
        box, so cross-box traffic contends on the network instead of the
        remote memory controller.
        """
        return self.n_sockets

    @property
    def resource_bandwidth(self) -> np.ndarray:
        """Peak bandwidth of each solver resource (length ``n_resources``)."""
        return self.node_bandwidth

    def socket_of_core(self, core: int) -> int:
        """Return the socket owning ``core``."""
        if not 0 <= core < self.n_cores:
            raise TopologyError(f"core {core} out of range [0, {self.n_cores})")
        return int(self._socket_of_core[core])

    def cores_of_socket(self, socket: int) -> range:
        """Return the (contiguous) core-id range of ``socket``."""
        self._check_socket(socket)
        lo = socket * self.cores_per_socket
        return range(lo, lo + self.cores_per_socket)

    def sockets(self) -> range:
        """Iterate over socket ids."""
        return range(self.n_sockets)

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.n_sockets:
            raise TopologyError(
                f"socket {socket} out of range [0, {self.n_sockets})"
            )

    # ------------------------------------------------------------------
    # Distance / bandwidth queries
    # ------------------------------------------------------------------
    def dist(self, socket_a: int, socket_b: int) -> float:
        """SLIT distance between two sockets."""
        self._check_socket(socket_a)
        self._check_socket(socket_b)
        return float(self.distance[socket_a, socket_b])

    def bandwidth_factor(self, socket: int, node: int) -> float:
        """Fraction of ``node``'s local bandwidth seen from ``socket``.

        Equal to ``local_distance / distance`` so a SLIT entry of 20 halves
        the usable bandwidth, the standard first-order approximation.
        """
        d = self.dist(socket, node)
        local = float(self.distance[node, node])
        return local / d

    def sockets_by_distance(self, socket: int) -> list[int]:
        """All sockets ordered by increasing distance from ``socket``.

        ``socket`` itself comes first; ties are broken by socket id so the
        order is deterministic.
        """
        self._check_socket(socket)
        return list(self._by_distance[socket])

    def max_distance(self) -> float:
        """Largest distance in the matrix (machine 'diameter')."""
        return float(self.distance.max())

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.name}: {self.n_sockets} sockets x "
            f"{self.cores_per_socket} cores ({self.n_cores} cores total)"
        )


@dataclass(frozen=True, eq=False)
class ClusterTopology(NumaTopology):
    """A cluster of identical NUMA boxes behind a network tier.

    Sockets are numbered box-major: box ``b`` owns sockets
    ``[b * sockets_per_box, (b + 1) * sockets_per_box)``, each with its own
    memory node exactly as on a single box.  The socket-level ``distance``
    matrix carries the full three-level hierarchy (intra-socket <
    inter-socket < network) and keeps driving placement, work stealing,
    fault remapping and partitioning.

    Bandwidth is where the model forks from one box: the solver's resource
    axis grows by one **NIC resource per box** (resource id
    ``n_sockets + box``).  Cross-box traffic is re-keyed by the simulator
    from the remote memory node onto the *data-source box's* NIC, so
    messages from many readers contend on that box's network port through
    the same progressive-filling solver — explicit network contention
    instead of an implicit remote load.

    Parameters (in addition to :class:`NumaTopology`'s)
    ----------
    n_boxes:
        Number of NUMA boxes; must satisfy
        ``n_boxes * sockets_per_box == n_sockets``.
    sockets_per_box:
        Sockets per box.
    nic_bandwidth:
        Peak per-box NIC bandwidth in bytes per simulated time unit
        (scalar broadcast to all boxes).  This single number encodes the
        network tier's slowness; the NIC's efficiency column is 1.0.
    """

    n_boxes: int = 1
    sockets_per_box: int = 1
    nic_bandwidth: np.ndarray = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_boxes < 1:
            raise TopologyError(f"need at least one box, got {self.n_boxes}")
        if self.n_boxes * self.sockets_per_box != self.n_sockets:
            raise TopologyError(
                f"{self.n_boxes} boxes x {self.sockets_per_box} sockets "
                f"!= {self.n_sockets} total sockets"
            )
        if self.nic_bandwidth is None:
            raise TopologyError("a cluster needs an explicit nic_bandwidth")
        nic = np.broadcast_to(
            np.asarray(self.nic_bandwidth, dtype=np.float64), (self.n_boxes,)
        ).copy()
        if np.any(nic <= 0):
            raise TopologyError("NIC bandwidth must be strictly positive")
        nic.setflags(write=False)
        object.__setattr__(self, "nic_bandwidth", nic)
        resource_bw = np.concatenate([self.node_bandwidth, nic])
        resource_bw.setflags(write=False)
        object.__setattr__(self, "_resource_bandwidth", resource_bw)

    # -- resource axis -------------------------------------------------
    @property
    def n_resources(self) -> int:
        return self.n_sockets + self.n_boxes

    @property
    def resource_bandwidth(self) -> np.ndarray:
        return self._resource_bandwidth

    def bandwidth_factor(self, socket: int, resource: int) -> float:
        """Efficiency of ``resource`` seen from ``socket``.

        Memory-node columns follow the SLIT rule; NIC columns are 1.0 —
        the NIC bandwidth itself already encodes the network slowness, and
        every socket drives the wire equally well.
        """
        if resource >= self.n_sockets:
            if resource >= self.n_resources:
                raise TopologyError(
                    f"resource {resource} out of range [0, {self.n_resources})"
                )
            return 1.0
        return super().bandwidth_factor(socket, resource)

    # -- box structure -------------------------------------------------
    def box_of_socket(self, socket: int) -> int:
        """Return the box owning ``socket``."""
        self._check_socket(socket)
        return socket // self.sockets_per_box

    def sockets_of_box(self, box: int) -> range:
        """Return the (contiguous) socket-id range of ``box``."""
        self._check_box(box)
        lo = box * self.sockets_per_box
        return range(lo, lo + self.sockets_per_box)

    def cores_of_box(self, box: int) -> range:
        """Return the (contiguous) core-id range of ``box``."""
        self._check_box(box)
        per_box = self.sockets_per_box * self.cores_per_socket
        lo = box * per_box
        return range(lo, lo + per_box)

    def nic_of_box(self, box: int) -> int:
        """Solver resource id of ``box``'s NIC."""
        self._check_box(box)
        return self.n_sockets + box

    def boxes(self) -> range:
        """Iterate over box ids."""
        return range(self.n_boxes)

    def _check_box(self, box: int) -> None:
        if not 0 <= box < self.n_boxes:
            raise TopologyError(f"box {box} out of range [0, {self.n_boxes})")

    def describe(self) -> str:
        return (
            f"{self.name}: {self.n_boxes} boxes x {self.sockets_per_box} "
            f"sockets x {self.cores_per_socket} cores "
            f"({self.n_cores} cores total)"
        )


def cluster_distance_matrix(
    n_boxes: int,
    sockets_per_box: int,
    local: float = LOCAL_DISTANCE,
    near: float = 16.0,
    network: float = 60.0,
) -> np.ndarray:
    """Three-level distance matrix for a cluster of NUMA boxes.

    Sockets within a box are *near* each other; sockets in different boxes
    sit at the *network* distance.  ``network`` should dwarf ``near`` — the
    cross-box asymmetry is an order of magnitude steeper than on-box NUMA.
    """
    if not (local <= near <= network):
        raise TopologyError("expected local <= near <= network distances")
    return hierarchical_distance_matrix(
        n_boxes * sockets_per_box, sockets_per_box,
        local=local, near=near, far=network,
    )


def uniform_distance_matrix(
    n_sockets: int, remote: float = 20.0, local: float = LOCAL_DISTANCE
) -> np.ndarray:
    """Distance matrix where every remote socket is equally far.

    Models a fully symmetric interconnect (e.g. a small glueless machine).
    """
    if remote < local:
        raise TopologyError("remote distance must be >= local distance")
    dist = np.full((n_sockets, n_sockets), float(remote))
    np.fill_diagonal(dist, float(local))
    return dist


def hierarchical_distance_matrix(
    n_sockets: int,
    group_size: int,
    local: float = LOCAL_DISTANCE,
    near: float = 16.0,
    far: float = 22.0,
) -> np.ndarray:
    """Two-level distance matrix: sockets within a group are *near*,
    sockets in different groups are *far*.

    Models glued NUMA machines such as the Atos bullion S16, where pairs of
    sockets share a module and modules are linked by the BCS interconnect.
    """
    if n_sockets % group_size != 0:
        raise TopologyError(
            f"{n_sockets} sockets cannot be grouped in groups of {group_size}"
        )
    if not (local <= near <= far):
        raise TopologyError("expected local <= near <= far distances")
    dist = np.full((n_sockets, n_sockets), float(far))
    for g in range(n_sockets // group_size):
        lo, hi = g * group_size, (g + 1) * group_size
        dist[lo:hi, lo:hi] = float(near)
    np.fill_diagonal(dist, float(local))
    return dist
