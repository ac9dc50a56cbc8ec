"""Pins of what the policy registry exposes outside the process.

Every registered policy's default ``spec_key`` and one non-default
parameterisation of each parameterised policy are pinned: the result
cache is addressed by them, so a registry change that moves one makes
every warm cache miss.  The ``repro policies`` listing is pinned byte
for byte against ``tests/data/policies.txt`` (CI diffs the same file),
and every policy's spec must pickle into a fresh ``spawn`` worker.
"""

import copy
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from repro.cli import main
from repro.cluster.spec import ClusterSpec
from repro.core.registry import policy_info, policy_names
from repro.experiments.executor import RunSpec, spec_key
from repro.hardware.gpu import GPUNodeConfig

POLICIES_GOLDEN = Path(__file__).parent / "data" / "policies.txt"

#: The cell topology each policy scope runs on.
TOPOLOGY = {
    "socket": {},
    "device": {"gpu": GPUNodeConfig()},
    "node": {"cluster": ClusterSpec()},
}

#: ``spec_key`` of a ``CG`` cell under each policy's defaults.
DEFAULT_KEYS = {
    "default": "787388597e2c11e315c1314463c876dcb06d9afe69dea77a5e825a8f86e8c514",
    "duf": "135369814a7b33d36c495aa39ad8e7f17c991734437f136c12af239dc6580a53",
    "dufp": "b16bd2f97e25ed2cb001bf482b4b99b7b4ae5adda20f44a18ec54f82325bc1bf",
    "dufpf": "890ac36528c0c07f9c32f94f23b3112023e15b1e3d43cd5b4db9ec68f504ccad",
    "dufp-adaptive": "fdfc566f07456360a1055f6a534fc616ed64d11acd0e5620f55455d431c7838d",
    "static": "e14bf51c085953b8fb40ef49da90eec2b6ff2fd5c6ee68e23c13b79eded61973",
    "uncore": "a18ad8413b328661502b41505a59708758b9a3da4816706c085e710e97bbee60",
    "window": "c72a55cdccc96b395313162adedbc3c01f4ef379f3d9857a16897e1b6b407786",
    "dnpc": "17d4ecb57ef4d855a835938e87701e34632d8cdbcd86bd28bcdee9e66e4f2d94",
    "budget": "6aeb171c2bce872930bc4a8cb9188b4febfe72dbbcbd9e3cfb6d16580116a4d4",
    "governor-performance": "4bc503560865c512eb9e2b87f4d5f20408a44e149812ccb5c48ac4ea1dd2da57",
    "governor-powersave": "4322d0a133d2fa3fd201423fdfe4cf2d43bd88b730fb92af94d73ecee9b1d8a1",
    "governor-ondemand": "5218ba3956bcbbcb986877e99330460b4474c9f36d6dc9d704ee99fb3d815ddd",
    "governor-schedutil": "f11f064f97c286d6e66ffa3123041d54c0e0665456a909efdd375644061e9e65",
    "hetero-static": "0dd9d71de6a033f6994c6f48493a9f88ac8dc06d7546939931200edcd76e842d",
    "hetero-coord": "33c083eb52336f89caf0f8f203c4045ad3c45b3ca4473e77ca8d3469381740aa",
    "hetero-fair": "cb9665638f00d5e6af1ac1852e33ecf694712231a9a96c3c348ba2ce3bc28d13",
    "fleet-static": "be2e77dfb691c58aa883b2bbb98fbcc998652b4a0298e2a23dd14a5bade43ee6",
    "fleet-demand": "27a5bb80eec0834254e6d46338cbdb742e565c79a088144c029c6d8579277f8d",
    "fleet-fair": "85a29559e3448f9fbeff2279c847dea8733b4bbbceee03fee976bfe9a493c0af",
}

#: ``spec_key`` of a ``CG`` cell under one non-default parameterisation
#: of every parameterised policy.
PARAM_KEYS = {
    "dufp-adaptive:fine_ticks=5": "ba34a914840294d45a3b1d9eff7dc9bd7be7c0620d9898705326be99339538ec",
    "static:cap_w=95": "19b858a6144f400048c95925f271c7b037efe5433bc2e203aec16f5d46a7179e",
    "uncore:freq_ghz=1.8": "39a9776021f7b42fee46009dcf7a72cad512f8f2f4975c7c19d0f9eac655c829",
    "window:cap_w=90,start_s=1,end_s=5": "9259c6b6d816a04d68759f97ee550a479fbc9dac255b0a2f23eddff4100e9dd5",
    "budget:watts=180,period_ticks=3,headroom_w=2": "ab8c896e9a39f550968adcb7d69a6e94ba4af16c589cef033cd7216a5a684e75",
    "governor-powersave:range_fraction=0.25": "5bc8a52180b50d998c7ec4bcefabc83adfbc932d6fa00512001170586bfa4438",
    "governor-ondemand:up_threshold=0.6,peak_gflops=150": "fcc33acea6d5b4e195d1d7e1e0608bc326cc0f52a6394bf57645152cc191b5b1",
    "governor-schedutil:margin=1.5,peak_gflops=150": "c522f14f68e3a94cf8a8dc3a08629dec5a66067450bbfb3e34f3366d1a3a85f5",
    "hetero-static:budget_w=450,cpu_fraction=0.3": "fcb0b027e942ae27082a9730cf61ebd9a1470ddffb5202c019326b624e59246c",
    "hetero-coord:budget_w=450": "be7f109cd590aa1b29ab198070e468caf6ece50531ccb2f2b0bce27c91a7e183",
    "hetero-fair:budget_w=450": "41ad11d6fe1dbc2e6db6ea6fe56fc5987f6e341d32f3c598afd4eb53c9af4c69",
    "fleet-static:budget_w=360": "ad4d17edb521f689e654f2c730a6c73b05d9f5ae94c8cdbea14724719038cbaf",
    "fleet-demand:budget_w=360": "2b82a3e161e0f7a1c69c2a3a1daf9ee1616231d624582a5530c60e9390143fa6",
    "fleet-fair:budget_w=360": "47c3758957a193e0217962bce9014e64b7f54273701ab0fb9266f96457d51314",
}


def _cell(text: str) -> RunSpec:
    """A ``CG`` cell of the policy ``text`` on its scope's topology."""
    scope = policy_info(text.partition(":")[0]).scope
    return RunSpec("CG", text, **TOPOLOGY[scope])


def test_every_policy_default_spec_key_is_pinned():
    assert set(DEFAULT_KEYS) == set(policy_names())
    assert {n: spec_key(_cell(n)) for n in policy_names()} == DEFAULT_KEYS


def test_parameterised_spec_keys_are_pinned():
    parameterised = {n for n in policy_names() if policy_info(n).param_fields()}
    assert {t.partition(":")[0] for t in PARAM_KEYS} == parameterised
    assert {t: spec_key(_cell(t)) for t in PARAM_KEYS} == PARAM_KEYS


def test_policies_listing_matches_golden(capsys):
    assert main(["policies"]) == 0
    assert capsys.readouterr().out == POLICIES_GOLDEN.read_text()


def test_every_policy_spec_pickles_in_process_and_under_spawn():
    """Generated parameter types resolve in a fresh worker process too."""
    cells = [_cell(n) for n in policy_names()]
    assert [pickle.loads(pickle.dumps(c)) for c in cells] == cells
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        back = list(pool.map(copy.copy, cells))
    assert back == cells
    assert [spec_key(c) for c in back] == [DEFAULT_KEYS[n] for n in policy_names()]
