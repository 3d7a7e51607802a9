"""Wire-size sanity for every KV message type.

Message sizes drive all network costs in the evaluation, so each type's
``wire_bytes`` must scale with the payload it claims to carry.
"""

import pytest

from repro.core import CodedShare, rs_paxos
from repro.erasure import CodingConfig
from repro.kvstore import (
    CatchUp,
    CatchUpEntry,
    CatchUpReply,
    ClientDelete,
    ClientGet,
    ClientPut,
    Command,
    ConfirmPlacement,
    FetchShare,
    GetOk,
    Heartbeat,
    HeartbeatAck,
    InstallShare,
    NewView,
    NotFound,
    NotReady,
    PlacementGaps,
    PutOk,
    Redirect,
    ShareReply,
)

CFG = CodingConfig(3, 5)


def share(size=3000):
    return CodedShare("v", 0, CFG, size)


class TestWireBytes:
    def test_put_scales_with_value(self):
        small = ClientPut("k", 100).wire_bytes
        large = ClientPut("k", 1_000_000).wire_bytes
        assert large - small == 1_000_000 - 100

    def test_get_reply_scales_with_value(self):
        assert GetOk("k", 5000).wire_bytes - GetOk("k", 0).wire_bytes == 5000

    def test_control_messages_are_small(self):
        for msg in (
            ClientGet("key"), ClientDelete("key"), PutOk("key"),
            NotFound("key"), Redirect("P1"), Redirect(None), NotReady(),
            Heartbeat(0), HeartbeatAck(1), FetchShare(0, 1, "v"),
            CatchUp(0, 0),
        ):
            assert msg.wire_bytes < 256, type(msg).__name__

    def test_share_reply_scales_with_share(self):
        full = ShareReply(share(3000)).wire_bytes
        empty = ShareReply(None).wire_bytes
        assert full - empty == CFG.share_size(3000)

    def test_install_share_scales(self):
        assert InstallShare(0, 1, "v", share(3000), None).wire_bytes > \
               InstallShare(0, 1, "v", share(30), None).wire_bytes

    def test_catch_up_reply_sums_entries(self):
        entries = tuple(
            CatchUpEntry(i, f"v{i}", 3000, Command("put", f"k{i}"), share(3000))
            for i in range(4)
        )
        reply = CatchUpReply(0, entries)
        single = CatchUpReply(0, entries[:1])
        assert reply.wire_bytes - single.wire_bytes == 3 * (
            32 + CFG.share_size(3000)
        )

    def test_placement_messages_scale_with_instance_count(self):
        many = ConfirmPlacement(0, tuple(range(50))).wire_bytes
        few = ConfirmPlacement(0, (1,)).wire_bytes
        assert many > few
        assert PlacementGaps(0, tuple(range(10))).wire_bytes > \
               PlacementGaps(0, ()).wire_bytes

    def test_new_view_scales_with_members(self):
        cfg = rs_paxos(5, 1)
        big = NewView(1, tuple(range(5)), cfg).wire_bytes
        small = NewView(1, (0, 1, 2), rs_paxos(3, 1)).wire_bytes
        assert big > small
