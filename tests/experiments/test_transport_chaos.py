"""Tests for the transport-chaos experiment and the MTP bench gate."""

import pytest

from repro.analysis import transport_chaos_chart
from repro.experiments import TransportChaosSpec, transport_chaos
from repro.experiments.bench import BENCHES, Cell, check


def test_reliable_beats_raw_and_stays_duplicate_free():
    # The acceptance claim: under seeded chaos (leader crashes + a loss
    # spike) reliable MTP delivers >= 95% where raw measurably loses,
    # with zero end-to-end duplicate handler deliveries.
    result = transport_chaos(quick=True)
    raw = result.delivery_ratio("raw")
    reliable = result.delivery_ratio("reliable")
    assert raw is not None and raw < 0.90
    assert reliable is not None and reliable >= 0.95
    assert result.duplicates("reliable") == 0
    # Reliability actually worked for its wins, not luck: the machinery
    # visibly ran.
    outcome = result.outcomes_for("reliable")[0]
    assert outcome.retransmits > 0
    assert outcome.acks > 0
    raw_outcome = result.outcomes_for("raw")[0]
    assert raw_outcome.retransmits == 0 and raw_outcome.acks == 0


def test_parallel_sweep_matches_serial_byte_for_byte():
    serial = transport_chaos(quick=True)
    parallel = transport_chaos(quick=True, jobs=2)
    assert serial.outcomes == parallel.outcomes  # digests included


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TransportChaosSpec(mode="bogus", seed=1)


def test_chart_renders_per_seed_delivery(tmp_path):
    result = transport_chaos(quick=True)
    chart = transport_chaos_chart(result)
    path = tmp_path / "transport.svg"
    chart.save(str(path))
    text = path.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "Fire-and-forget" in text and "Reliable" in text


def _bench(overhead_frames, delivered=16, duplicates=0):
    return [Cell("mtp", {"seed": 1}, counts={
        "sent": 16, "raw_frames": 100, "reliable_frames": overhead_frames,
        "raw_delivered": 6, "reliable_delivered": delivered,
        "retransmits": 3, "acks": delivered, "dead_letters": 0,
        "duplicates": duplicates})]


def test_mtp_gate_passes_within_factor():
    assert BENCHES["mtp"].factor == pytest.approx(1.25)
    ok, message = check("mtp", _bench(240), _bench(200))
    assert ok, message


def test_mtp_gate_fails_on_frame_bloat():
    ok, message = check("mtp", _bench(260), _bench(200))
    assert not ok and "REGRESSION" in message


def test_mtp_gate_fails_on_delivery_or_duplicate_slip():
    ok, message = check("mtp", _bench(200, delivered=14), _bench(200))
    assert not ok and "DELIVERY" in message
    ok, message = check("mtp", _bench(200, duplicates=1), _bench(200))
    assert not ok and "DUPLICATE" in message
