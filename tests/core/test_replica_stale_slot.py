"""A media repair must not leave the replica holding stale record images.

Rot repair relocates the faulty record and frees its slot; the next
allocation can reuse that slot for a different record.  The replica still
holds the old image under the same handle, so a delta that skips handles
the replica "already has" would leave it stale — and a later fault on the
new record would find no usable redundancy.
"""

from repro.config import OCTANT_RECORD_SIZE
from repro.core.pmoctree import SLOT_PREV
from repro.core.recovery import scrub
from repro.core.replication import ReplicaSession, ReplicaStore, ship_delta
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import index_of

from .conftest import PMRig


def _signature(tree):
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _published(rig):
    root = rig.nvbm.roots.get(SLOT_PREV)
    return root, rig.tree.reachable_from(root)


def _gline(handle):
    return index_of(handle) * LINES_PER_RECORD


def _rig():
    rig = PMRig(dram_octants=2048, nvbm_octants=1 << 15)
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())):
        tree.set_payload(leaf, (0.0, float(i), 1.0, 2.0))
    tree.persist(transform=False)
    model = MediaFaultModel(seed=13)
    rig.nvbm.attach_fault_model(model)
    return rig, model


def _repair_then_reuse(rig, model, ship):
    """Rot the root, repair it from the replica (freeing its slot), then
    persist an update whose copy-on-write chain reuses that slot."""
    tree = rig.tree
    root, _ = _published(rig)
    model.plant_rot(_gline(root))
    report = scrub(tree, replica=ship.replica)
    assert report.ok and report.relocated == 1
    leaf = sorted(tree.leaves())[0]
    tree.set_payload(leaf, (9.0, 9.0, 9.0, 9.0))
    tree.persist(transform=False)
    _, published = _published(rig)
    assert root in published, "the freed slot was not reused"
    ship()
    return root


def _assert_replica_exact(rig, replica):
    _, published = _published(rig)
    for h in published:
        assert replica.records[h] == rig.nvbm.read(h), hex(h)


class _DirectShip:
    def __init__(self, tree):
        self.tree = tree
        self.replica = ReplicaStore()

    def __call__(self):
        ship_delta(self.tree, self.replica)


class _SessionShip:
    def __init__(self, tree):
        self.session = ReplicaSession(tree)
        self.replica = self.session.replica

    def __call__(self):
        self.session.ship()


def test_ship_delta_resends_a_slot_reused_after_repair():
    rig, model = _rig()
    ship = _DirectShip(rig.tree)
    ship()
    reused = _repair_then_reuse(rig, model, ship)
    _assert_replica_exact(rig, ship.replica)
    # a second fault on the record now living in the reused slot is still
    # repairable from the replica
    before = _signature(rig.tree)
    model.plant_rot(_gline(reused))
    report = scrub(rig.tree, replica=ship.replica)
    assert report.ok and report.repaired_replica == 1
    assert _signature(rig.tree) == before


def test_session_ship_resends_a_slot_reused_after_repair():
    rig, model = _rig()
    ship = _SessionShip(rig.tree)
    ship()
    _repair_then_reuse(rig, model, ship)
    _assert_replica_exact(rig, ship.replica)


def test_stale_set_clears_once_shipped():
    rig, model = _rig()
    ship = _DirectShip(rig.tree)
    ship()
    _repair_then_reuse(rig, model, ship)
    assert not rig.tree._replica_stale
    # with nothing repaired since, the next delta is the normal one
    leaf = sorted(rig.tree.leaves())[1]
    rig.tree.set_payload(leaf, (7.0, 7.0, 7.0, 7.0))
    rig.tree.persist(transform=False)
    _, published = _published(rig)
    fresh = {h for h in published if h not in ship.replica.records}
    assert ship_delta(rig.tree, ship.replica) \
        == len(fresh) * OCTANT_RECORD_SIZE
