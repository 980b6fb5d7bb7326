"""``ColumnarShardView`` against a plain-dict model of a shard's host view.

The model is the spec: a shard holds MAC keys for the HIDs it was given
(``add_owned`` or a snapshot's owned section) and a replicated set of
live HIDs; ``get`` answers only for held HIDs, ``is_valid`` only from
the live set.  Nothing in it depends on the shard plan, so every
block-stripe row-compaction path in the view (in-plan rows, HIDs another
shard owns, service HIDs below ``FIRST_HOST_HID``, never-seen HIDs) must
reduce to the same answers.  Hypothesis generates operation sequences;
after every step the view and the model must agree on ``is_valid``, the
outcome of ``get`` and ``owned_count`` for every HID in the universe.
"""

from hypothesis import given, settings, strategies as st

from repro.core.errors import RevokedError, UnknownHostError
from repro.core.hostdb import FIRST_HOST_HID
from repro.core.keys import HostAsKeys
from repro.state import ColumnarShardView, ShardSnapshot

SERVICE_HIDS = (1, 2, 3, 4, 5)
HOST_HIDS = tuple(range(FIRST_HOST_HID, FIRST_HOST_HID + 16))
#: Never touched by any operation: a free service slot, the row just
#: past the host range and one far beyond it.
UNKNOWN_HIDS = (6, FIRST_HOST_HID + 16, FIRST_HOST_HID + 1000)
UNIVERSE = SERVICE_HIDS + HOST_HIDS + UNKNOWN_HIDS


class ShardViewModel:
    """What a shard's host view answers, as two plain containers."""

    def __init__(self) -> None:
        self.owned: dict[int, tuple[HostAsKeys, bool]] = {}
        self.live: set[int] = set()

    def add_owned(self, hid, control, packet_mac, *, revoked=False):
        self.owned[hid] = (HostAsKeys(control, packet_mac), revoked)
        if not revoked:
            self.live.add(hid)

    def set_live(self, hid):
        self.live.add(hid)

    def revoke(self, hid):
        self.live.discard(hid)
        if hid in self.owned:
            self.owned[hid] = (self.owned[hid][0], True)

    def load_snapshot(self, snap):
        self.owned = {
            hid: (HostAsKeys(control, packet_mac), revoked)
            for hid, control, packet_mac, revoked in snap.iter_owned()
        }
        self.live = set(snap.iter_live())

    def is_valid(self, hid):
        return hid in self.live

    def get(self, hid):
        if hid not in self.owned:
            raise UnknownHostError(hid)
        keys, revoked = self.owned[hid]
        if revoked:
            raise RevokedError(hid)
        return keys

    @property
    def owned_count(self):
        return len(self.owned)


def _keys(k):
    return bytes([k]) * 16, bytes([k ^ 0xFF]) * 16


hids = st.sampled_from(SERVICE_HIDS + HOST_HIDS)


@st.composite
def snapshots(draw):
    """Snapshots as ``build_shard_snapshot`` makes them: unique owned
    HIDs, and every non-revoked owned row also in the live section."""
    owned = draw(
        st.dictionaries(hids, st.tuples(st.integers(0, 255), st.booleans()))
    )
    rows = [(hid, *_keys(k), revoked) for hid, (k, revoked) in owned.items()]
    live = {hid for hid, (_, revoked) in owned.items() if not revoked}
    live |= draw(st.sets(hids))
    return ShardSnapshot.from_rows(rows, sorted(live), [])


operations = st.one_of(
    st.tuples(st.just("add_owned"), hids, st.integers(0, 255), st.booleans()),
    st.tuples(st.just("set_live"), hids),
    st.tuples(st.just("revoke"), hids),
    st.tuples(st.just("load_snapshot"), snapshots()),
)


def _apply(target, op):
    name, *args = op
    if name == "add_owned":
        hid, k, revoked = args
        target.add_owned(hid, *_keys(k), revoked=revoked)
    else:
        getattr(target, name)(*args)


def _outcome(get):
    """The kHA keys ``get`` returns, or the type of error it raises."""
    try:
        return get()
    except (UnknownHostError, RevokedError) as exc:
        return type(exc)


@st.composite
def plans(draw):
    nshards = draw(st.sampled_from((1, 2, 3)))
    block = draw(st.sampled_from((1, 4)))
    shard = draw(st.integers(0, nshards - 1))
    return nshards, block, shard


@settings(max_examples=120, derandomize=True, deadline=None)
@given(plans(), st.lists(operations, max_size=20))
def test_view_matches_model(plan, ops):
    nshards, block, shard = plan
    view = ColumnarShardView(shard=shard, nshards=nshards, block=block)
    model = ShardViewModel()
    for step, op in enumerate(ops):
        _apply(view, op)
        _apply(model, op)
        assert view.owned_count == model.owned_count, (step, op)
        for hid in UNIVERSE:
            assert view.is_valid(hid) == model.is_valid(hid), (step, op, hid)
            assert _outcome(lambda: view.get(hid).keys) == _outcome(
                lambda: model.get(hid)
            ), (step, op, hid)
