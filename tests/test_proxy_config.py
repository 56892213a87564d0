"""Proxy configuration invariants and the cost model's calibration."""

from __future__ import annotations

import pytest

from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.sgx.costs import NO_SGX, SgxCostModel


def test_defaults_enable_all_features():
    config = PProxConfig()
    assert config.encryption and config.sgx and config.item_pseudonymization
    assert config.shuffling and config.shuffle_size == 10


def test_shuffle_zero_disables_shuffling():
    assert not PProxConfig(shuffle_size=0).shuffling


def test_negative_shuffle_rejected():
    with pytest.raises(ValueError):
        PProxConfig(shuffle_size=-1)


def test_zero_instances_rejected():
    with pytest.raises(ValueError):
        PProxConfig(ua_instances=0)


def test_no_encryption_implies_no_item_pseudonymization():
    config = PProxConfig(encryption=False, item_pseudonymization=True)
    assert not config.item_pseudonymization


def test_no_encryption_implies_no_hardening():
    config = PProxConfig(encryption=False, harden_client_hop=True)
    assert not config.harden_client_hop


def test_describe_mentions_features():
    text = PProxConfig(encryption=True, item_pseudonymization=False).describe()
    assert "enc=*" in text
    assert PProxConfig(encryption=False).describe().startswith("enc=no")


# -- cost model ----------------------------------------------------------

FULL = PProxConfig()
NO_ENC = PProxConfig(encryption=False, sgx=False, shuffle_size=0)
ENC_ONLY = PProxConfig(encryption=True, sgx=False, shuffle_size=0)
ENC_SGX = PProxConfig(encryption=True, sgx=True, shuffle_size=0)
NO_ITEM_PSEUDO = PProxConfig(encryption=True, sgx=True, shuffle_size=0,
                             item_pseudonymization=False)


def _round_trip(costs: ProxyCostModel, config: PProxConfig) -> float:
    return (
        costs.ua_request_leg(config, 0)
        + costs.ia_request_leg(config, 0)
        + costs.ia_response_leg(config, 0, items=20)
        + costs.ua_response_leg(config, 0)
    )


def test_encryption_costs_more_than_sgx():
    """The Figure 6 ordering: m1 < m2 delta > m2 < m3 delta."""
    base = _round_trip(DEFAULT_COSTS, NO_ENC)
    with_enc = _round_trip(DEFAULT_COSTS, ENC_ONLY)
    with_sgx = _round_trip(DEFAULT_COSTS, ENC_SGX)
    encryption_cost = with_enc - base
    sgx_cost = with_sgx - with_enc
    assert encryption_cost > sgx_cost > 0


def test_item_pseudonymization_is_cheap():
    """m4 vs m3: 'the impact is negligible' — under 20 % of the total."""
    full = _round_trip(DEFAULT_COSTS, ENC_SGX)
    without = _round_trip(DEFAULT_COSTS, NO_ITEM_PSEUDO)
    assert 0 < full - without < 0.2 * full


def test_single_pair_capacity_matches_paper():
    """One UA+IA pair (4 cores) sustains ~250 RPS: the bottleneck
    layer's per-request core time must sit between 2/300 and 2/250."""
    ua_time = DEFAULT_COSTS.ua_request_leg(FULL, 0) + DEFAULT_COSTS.ua_response_leg(FULL, 0)
    ia_time = DEFAULT_COSTS.ia_request_leg(FULL, 0) + DEFAULT_COSTS.ia_response_leg(FULL, 0, 20)
    bottleneck = max(ua_time, ia_time)
    assert 2.0 / 300 < bottleneck < 2.0 / 250


def test_attack_penalty_scales_cost():
    normal = DEFAULT_COSTS.ua_request_leg(FULL, 0, penalty=1.0)
    attacked = DEFAULT_COSTS.ua_request_leg(FULL, 0, penalty=3.0)
    assert attacked == pytest.approx(3 * normal)


def test_epc_paging_kicks_in_at_scale():
    model = SgxCostModel(epc_entries=100)
    small = model.request_overhead(pending_entries=50)
    large = model.request_overhead(pending_entries=500)
    assert large > small


def test_no_sgx_model_is_free():
    assert NO_SGX.request_overhead(10_000) == 0.0


def test_hardened_hop_costs_extra_on_response():
    hardened = PProxConfig(harden_client_hop=True, shuffle_size=0)
    assert DEFAULT_COSTS.ua_response_leg(hardened, 0) > DEFAULT_COSTS.ua_response_leg(FULL, 0)


def test_client_side_costs_zero_without_encryption():
    assert DEFAULT_COSTS.client_encrypt_seconds(NO_ENC) == 0.0
    assert DEFAULT_COSTS.client_decrypt_seconds(NO_ENC) == 0.0
    assert DEFAULT_COSTS.client_encrypt_seconds(FULL) > 0.0
