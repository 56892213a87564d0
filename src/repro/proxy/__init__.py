"""The PProx privacy-preserving proxy service (the paper's contribution).

Two pseudonymizing layers in separate SGX enclaves — the
client-facing :class:`~repro.proxy.layers.UserAnonymizer` and the
LRS-facing :class:`~repro.proxy.layers.ItemAnonymizer` — plus the
request/response :class:`~repro.proxy.shuffler.ShuffleBuffer`, the
protocol transformations of §4.2, the calibrated cost model, and the
service assembly with attestation-gated key provisioning.
"""

from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.proxy.layers import ItemAnonymizer, ProxyRuntime, UserAnonymizer
from repro.proxy.protocol import (
    CallKeys,
    ClientMaterial,
    IaRequestContext,
    client_decode_response,
    client_encode_get,
    client_encode_post,
    ia_transform_request,
    ia_transform_response,
    ua_transform_request,
    ua_wrap_response,
)
from repro.proxy.service import IA_CODE_IDENTITY, UA_CODE_IDENTITY, PProxService, build_pprox
from repro.proxy.rekey import OnlineRekeyer, RekeyReport, reencrypt_store
from repro.proxy.epochs import (
    EPOCH_FIELD,
    ROTATION_STATES,
    EpochWindow,
    RotationCoordinator,
    decode_epoch,
    encode_epoch,
    epoch_window_of,
    stamp_epoch,
    window_candidates,
)
from repro.proxy.shuffler import ShuffleBuffer

__all__ = [
    "PProxConfig",
    "ProxyCostModel",
    "DEFAULT_COSTS",
    "UserAnonymizer",
    "ItemAnonymizer",
    "ProxyRuntime",
    "ShuffleBuffer",
    "RekeyReport",
    "OnlineRekeyer",
    "reencrypt_store",
    "EPOCH_FIELD",
    "ROTATION_STATES",
    "EpochWindow",
    "RotationCoordinator",
    "decode_epoch",
    "encode_epoch",
    "epoch_window_of",
    "stamp_epoch",
    "window_candidates",
    "CallKeys",
    "ClientMaterial",
    "IaRequestContext",
    "ua_wrap_response",
    "client_encode_post",
    "client_encode_get",
    "client_decode_response",
    "ua_transform_request",
    "ia_transform_request",
    "ia_transform_response",
    "PProxService",
    "build_pprox",
    "UA_CODE_IDENTITY",
    "IA_CODE_IDENTITY",
]
