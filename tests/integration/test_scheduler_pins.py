"""Pinned serving runs: every scheduler setting's report and trace, by digest.

A 70-run matrix — five schemes × seven scheduler settings × open and
closed load, one fixed seed — served with a tracer attached.  Each run
is recorded as the SHA-256 of ``report.to_dict()`` and of
``canonical_trace(tracer.export())`` (both JSON-encoded with sorted
keys).  Any change to which requests share a dispatch, when a batching
window closes, how many groups are in flight or which arrivals are shed
moves a digest, so a scheduler refactor that claims "same behaviour"
can be held to it bit for bit.

Regenerate the table (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_scheduler_pins.py
"""

import hashlib
import json

import pytest

from repro.obs.tracer import Tracer, canonical_trace
from repro.serving import ServingConfig, serve

SCHEMES = ("dp_ir", "batch_dp_ir", "dp_ram", "dp_kvs", "cluster_batch_dp_ir")

SETTINGS = {
    "fifo": dict(scheduler="fifo"),
    "window": dict(scheduler="window"),
    "window-0ms": dict(scheduler="window", batch_window_ms=0.0),
    "batch-5ms-max4": dict(scheduler="batch", batch_window_ms=5.0,
                           max_batch=4),
    "continuous": dict(scheduler="continuous"),
    "continuous-depth1": dict(scheduler="continuous", max_in_flight=1),
    "continuous-caps": dict(scheduler="continuous", max_in_flight=2,
                            tenant_credits=2, queue_cap=2),
}

LOADS = {
    "open": dict(load="open", rate_rps=400.0),
    "closed": dict(load="closed", think_ms=0.5),
}

COMMON = dict(clients=4, requests_per_client=8, n=64, seed=30,
              network="lan")


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _run(scheme: str, setting: str, load: str) -> tuple[str, str]:
    tracer = Tracer("pin")
    report = serve(scheme, ServingConfig(
        tracer=tracer, **COMMON, **SETTINGS[setting], **LOADS[load],
    ))
    return (
        _digest(report.to_dict()),
        _digest(canonical_trace(tracer.export())),
    )


CASES = [
    f"{scheme}/{setting}/{load}"
    for scheme in SCHEMES for setting in SETTINGS for load in LOADS
]

#: ``scheme/setting/load`` → (report digest, trace digest).
PINS: dict[str, tuple[str, str]] = {
    "dp_ir/fifo/open": (
        "979b85af2f19f571b6c2e6babfd991f64a5508bd877a31966958df9cfc33a49e",
        "5329469c0a27e013f6bfb744812267d34d43f806a85cfeeca1df2813cc7fc167",
    ),
    "dp_ir/fifo/closed": (
        "d6282de12a10c9e1fd8ec2318e3006a5aeeaeaa238262fdb4750b6555eae15c9",
        "4c774b10f4a2985977ca9e94d7917e16577d201cf559140eef63d329a9c678a9",
    ),
    "dp_ir/window/open": (
        "dbb4526c80b4a79edd2d61a52fa1afbe8e0750c7d2a989c6c8c33a00ab650371",
        "311e735a0a7390868ccc0b94473e2d32d22ee05df4b270eb0ec7251b41e69295",
    ),
    "dp_ir/window/closed": (
        "2cf37c80c48c0f70eee6e8bfe83cc48c7687241cc784491dbb28c01363b9afa5",
        "3f7d3bf809f1a071ee65f764e025ee4928e2dc9cc17feb5b58973692a778b2b9",
    ),
    "dp_ir/window-0ms/open": (
        "4706ee468670dbb7b356aff86eab96acd21e8ed6ebd54e81c0b5509bec641a35",
        "3ae0130f7e400276712a8d6199e38f5e7fe371476926fe3cec5c802a02ea2933",
    ),
    "dp_ir/window-0ms/closed": (
        "8352497b000bd9b8ad32243dd77a7a3022430315da4bcb17b35cc9ef95a794dc",
        "e3ae13cec9dd67e4b66e7704c5d57231e161d11b2cd7e46a445d620a15ce6f1c",
    ),
    "dp_ir/batch-5ms-max4/open": (
        "3f02a42036d3c23a2fac57f4d3ee61c363ddab3a629e86aa226e72be75cccaa8",
        "e46dc850f91e939fc955c328a4ef164ac5daba09e4b5a3709acb53aa1a9bd605",
    ),
    "dp_ir/batch-5ms-max4/closed": (
        "cb6d6ef95a6b6d180f9a772250f31a43763594b41c8f44d009cd69089cab3a73",
        "f0f99d87f600f934f605578f85ad9aeaec4a67b0ecc1057b94b358242bb9c720",
    ),
    "dp_ir/continuous/open": (
        "6a4e8740dbf54f18e23550ceee79626e6ac251afa650a6601a3715997b866f2e",
        "5dd78d47fd026195310af1935b70da9d9c10aea055e352a4a6a7b5999ba547be",
    ),
    "dp_ir/continuous/closed": (
        "0dd34092a4755ff839dda7b6394caa1f69993ff55e0030f2aed72c201635c8a6",
        "63bb333b39efbb9ef1a8fa7ccadae431287cf6240d94b31eb317a93dc7ae3256",
    ),
    "dp_ir/continuous-depth1/open": (
        "b7e1fbf780962c7b4dc25acc929fc7c59b8152b73c01aac9090c4a9a44decf01",
        "3ae0130f7e400276712a8d6199e38f5e7fe371476926fe3cec5c802a02ea2933",
    ),
    "dp_ir/continuous-depth1/closed": (
        "cf424ada00344446c1103e374d2796b94a8b06ac6728898680966d84af0e5ab8",
        "e3ae13cec9dd67e4b66e7704c5d57231e161d11b2cd7e46a445d620a15ce6f1c",
    ),
    "dp_ir/continuous-caps/open": (
        "09d7fb9becdd2803c2c54e577d0a88c577fc7f2ceb6ffb74eec7a3150c48ec25",
        "302ea4302dadf696e01c7f27b1fc69067c39e00a1b9e66f12be1e32bae4a6662",
    ),
    "dp_ir/continuous-caps/closed": (
        "65a19c510e0b9611553e2ed9b73b0d48198192a527c1276544752e20688fc240",
        "8f15a529bd37619f7f7dbc417f316b435598f4481a0d124d4236f9b11dbbc004",
    ),
    "batch_dp_ir/fifo/open": (
        "4e582f636d1cba47a5b9768c0d89c88d0a249be56f5eb0071b0569594fbc5ed7",
        "5329469c0a27e013f6bfb744812267d34d43f806a85cfeeca1df2813cc7fc167",
    ),
    "batch_dp_ir/fifo/closed": (
        "578c8f3115d62cc679264df40abb15b59b52e7973821532ce5532d9ff2d381aa",
        "4c774b10f4a2985977ca9e94d7917e16577d201cf559140eef63d329a9c678a9",
    ),
    "batch_dp_ir/window/open": (
        "c63a9542a1dd7727d6b59391f4bcf8af5444569d4e788a22ac2f0d0a5a6a026d",
        "7c457fe86259c0f7c4e37234a0ce5a14d7d76044c6fce3a7babf3d4e583b23c6",
    ),
    "batch_dp_ir/window/closed": (
        "ca3f868577078948c227d47318c75842c5abb66af34462d20d0a1ef69de2c5e9",
        "b143341387991e94d1723c58c48b123fea06bb0a4272999ac50d03df3bc485bd",
    ),
    "batch_dp_ir/window-0ms/open": (
        "a1a62a3331388ba04ccb17f2bf6baedafe23ef528206ea516d041a6bb37820bd",
        "f4a3966cd9df82856e74b3d201197b90f609d8bf241feb0edaeffecc14e08e8a",
    ),
    "batch_dp_ir/window-0ms/closed": (
        "1234e3c738cb8dbde8ea63e48aac23216a3bf383150b5680a7c84eebd6baa6ec",
        "b184b67c89eccefb4ddac0c90f46b5eebc3c4480eaaf76507fb009e16eb6ed05",
    ),
    "batch_dp_ir/batch-5ms-max4/open": (
        "01e3b96dd76c80ec0b1c4e2f50296ea60c5069bf830807e2df0fe7b033207d5a",
        "f885065660894241a8be5d10f7002610057ac050abfbd99c526d2f089f247e82",
    ),
    "batch_dp_ir/batch-5ms-max4/closed": (
        "ba9541744e47c1ccdc7b209bc831dec7841d874fa5d58638c2fe11b90794a18c",
        "be2b8092689a61ca9fe773815aa6069bfa0eb04a286ffb2b8fec9adea4d6d931",
    ),
    "batch_dp_ir/continuous/open": (
        "0ce1f4203ead725cbfc46a14e7e1f4d1395a26973397bdf344a9161ac24768bf",
        "715648729bee63b9dd04fdd5412bf10801b29fc75da8637da843e70e5116675e",
    ),
    "batch_dp_ir/continuous/closed": (
        "f2770fb03df665404d96ad3b2eda15f71690e0ba0deab3a0f54c8c3aa68a6039",
        "63bb333b39efbb9ef1a8fa7ccadae431287cf6240d94b31eb317a93dc7ae3256",
    ),
    "batch_dp_ir/continuous-depth1/open": (
        "6992d1eba84cfca02aab6b943a3ff866b1ff6f1d3a38f41c703f3cc478d2cb33",
        "f4a3966cd9df82856e74b3d201197b90f609d8bf241feb0edaeffecc14e08e8a",
    ),
    "batch_dp_ir/continuous-depth1/closed": (
        "dc9ca65eb2bb815bb47adb2c7ba899811d575f99196022482b28b942b52657a3",
        "b184b67c89eccefb4ddac0c90f46b5eebc3c4480eaaf76507fb009e16eb6ed05",
    ),
    "batch_dp_ir/continuous-caps/open": (
        "75528c76015f1506c2c850af503a4c538bc499dd5c29fa28a7a9970639c9072b",
        "a5a89349d087efa1ef3ea43b13105c2e189155775608d968beb3c47754e327a7",
    ),
    "batch_dp_ir/continuous-caps/closed": (
        "648233b6c705588e7ca67b6f1130a7887891cfc7b29ee8b526e9395158e8ee24",
        "80e3435c939032d89a44a0abb5ea8624d84019e8fa510a7a80a1cdb625252ad5",
    ),
    "dp_ram/fifo/open": (
        "150cc7ea745c410cf44d3dc5adf35e3d12e5dd5838c571288b55f18945cf92ef",
        "467a785d8ef9c13bbdc7a30703872d50e3ffcfe4af929243f159b3890771a5c1",
    ),
    "dp_ram/fifo/closed": (
        "8c3a08be9c63a2d230aebccd47390395808dfa5c0e6af2835728427a2b282dea",
        "edfd415af9a3ee3e719333582e367c9c66acbc0a8f406be67ca139db9b1bc1ba",
    ),
    "dp_ram/window/open": (
        "65e3301714464cd68faaea56c4abb61df2c8a3a636c90b3d35e8e56a29747698",
        "aabaa10e7fc266a9551e97d8e536960fa5673be42f77c0961f751d24def4bec1",
    ),
    "dp_ram/window/closed": (
        "0e6f035ad7296ba25600cb51d5ab7f2aa5e7d70944ce57b04fa115b2c598d5ac",
        "43f0579b1aa192639af5e04ab148c47abf1226817eb12b2328b048810f227c3f",
    ),
    "dp_ram/window-0ms/open": (
        "157bdfb75df57627ac915d95a1d370a8a140685020519e10a268c81728089e08",
        "cd3f6fef4b6a2df291a769fdbba2e9ae19ae2f792d85fb14c65142b07221cb58",
    ),
    "dp_ram/window-0ms/closed": (
        "23751f0d9025b9b9744312e8c55f5f05f180db3fed971da978dbabd8e0d2d5ad",
        "0d3b814cbef24a9607da3c35ef6dd437a6a8418e006c6770c43f24d4507976f9",
    ),
    "dp_ram/batch-5ms-max4/open": (
        "aac94d49a3e478a066bc1aef9d04afe663c860ac89734bcb80d5bfe81e02ea11",
        "ad6b87059539c1523b9c0aeb0df6dd256f460d6f2db3d39ce029101bd8182a1d",
    ),
    "dp_ram/batch-5ms-max4/closed": (
        "4aa09b95e6b31e927009dac1dbe797e91e247774ec9496b678d54a4c0c4158d7",
        "062e221ef108991edbe6fbc6f63f48ddac00b420c0db4325972ce8d7c9dec153",
    ),
    "dp_ram/continuous/open": (
        "ab5bb08386f028b625e8e8a0cde7527d8aac269aa22c23ad0c31fb3ec560e062",
        "908d266ba5f56cf751622f1942732da5732ee6a51642dfab9763df1445f69b19",
    ),
    "dp_ram/continuous/closed": (
        "bf32861789607b8b3eea004bc06b3bf472b1f764338ca0d473ef395b7176302c",
        "c646ca64286042d72309dd9a248335b91e124bbb1e5d2c63aab611d8f6540abd",
    ),
    "dp_ram/continuous-depth1/open": (
        "3192e1ff3b8ce039df7527c8f7061d090bfb45c3dda590478abc044dd041b72e",
        "cd3f6fef4b6a2df291a769fdbba2e9ae19ae2f792d85fb14c65142b07221cb58",
    ),
    "dp_ram/continuous-depth1/closed": (
        "b4b61b57461f4bc3f63a432071c7a326f987d9c751a812bddebe650cddb5d037",
        "0d3b814cbef24a9607da3c35ef6dd437a6a8418e006c6770c43f24d4507976f9",
    ),
    "dp_ram/continuous-caps/open": (
        "734c760126602f157338fe400543f2b26db47b7f51d38b39f3b13b83ef43d724",
        "265ff71d96337c2049e2379f48671d3dd6bd910fd9461aaa89985591689f530c",
    ),
    "dp_ram/continuous-caps/closed": (
        "b17099d105492f0f376fddd421ac07ae9f7400a9d770d6e6c10b66472b0a6e17",
        "92bea1ced954f3ded65c9b86e7696dd91cb4d8e6387449071a2a5d55f5658333",
    ),
    "dp_kvs/fifo/open": (
        "24f394618280433681e9b54d7989d59d8ca28d1e83104528a59926c6cef3daf1",
        "21f0c21a3a8ce4c63a8c857c02e01079f3801c42c274c39ee561972915ce05a5",
    ),
    "dp_kvs/fifo/closed": (
        "a2cffe523c31c1803c2b468621d07f1e674d7d4535eb193d3b4b19cd67df522a",
        "8e81ede3b3595827c6f36e4d48056013368a8ef9f93e8b86385a4fca41c1bea2",
    ),
    "dp_kvs/window/open": (
        "d53b2b332b2656fe1ea1f6472338d43143998b3264f50c459ab0796e5e8d6a19",
        "3bae5fb6c8423293e21602f05f93294fcb309edee2eb79c6ae29b8cc1d62e7d8",
    ),
    "dp_kvs/window/closed": (
        "48a284ac71d5ee99f6d47d83e79964d05efa3d5575f0433aba84ae5d8685838e",
        "11bdb1080e08d26a6d582bd048dacb8e4f322be104119d4f88b614ccfc0c13ce",
    ),
    "dp_kvs/window-0ms/open": (
        "2408dd21f8c3c7ccbceca0a30563070e4f414c4bc252f2c653438ef3172da967",
        "0aca6ec722790d259da9a09e89453c9777ea960a8af7c917517c7365a6838547",
    ),
    "dp_kvs/window-0ms/closed": (
        "ea05012cb08d733fc4158eddad11519d04eefabc3a010c4c08e883d8ba94e63b",
        "6a9f94e19a49f38059dbe664b10906d4af1448b221dff8b3b64ec20482e0f93c",
    ),
    "dp_kvs/batch-5ms-max4/open": (
        "a4d6595de4cef34b6f6f3cf00ae46a00230d89d68f4341be7e6404a2041150e8",
        "50def8bf0d3961bd33c9bc6e2c526f9a12109c166689d42d03bf111de002d36d",
    ),
    "dp_kvs/batch-5ms-max4/closed": (
        "1bbf53df5d2107e4bb34feea252615f4109e70d33887f025b85877acba86584a",
        "1e253632c26e0716d769319cd0b59477f4b13c1fcd835f37d1a91802b3098313",
    ),
    "dp_kvs/continuous/open": (
        "c87ec212c42dab6726d24901572a4bf0bacda4483866f081878cbf94e544fcce",
        "ec0fdd6fa36c03a9c16f23904c8b2720b9238bd7c9153a42cbfbb2d4a2184c10",
    ),
    "dp_kvs/continuous/closed": (
        "c8e8bcdbc5b1e51e7c4d41970155579846049f74c0706e1dc2b7ee6935b7d5ea",
        "f789f4b4ce8b1bb96dd89bc710fa1d55ac51074a55bddea2f8b95c463b95407d",
    ),
    "dp_kvs/continuous-depth1/open": (
        "9b6aea710589a9b66b8513bdce999737a251be2797325234d6577abba8b99024",
        "0aca6ec722790d259da9a09e89453c9777ea960a8af7c917517c7365a6838547",
    ),
    "dp_kvs/continuous-depth1/closed": (
        "7121b5b22550e4e296bbf95736d4973b23000c7209b9b46dba9f86b7513700a6",
        "6a9f94e19a49f38059dbe664b10906d4af1448b221dff8b3b64ec20482e0f93c",
    ),
    "dp_kvs/continuous-caps/open": (
        "e5e463c243ab3dbce5e965aea3e855a617a61d1d0bcc35f44b379c915624d2cc",
        "4821404d6812956465f7366ec83b343bb8c9853d06750b48fda01d9bd717e18f",
    ),
    "dp_kvs/continuous-caps/closed": (
        "92ffa93189dfa91b9e3e15dcc3cdbe90a6bec59c0cc47035baec12a4935bec22",
        "2330cec8ffba9b2e9e5330ae8ed3c4e0efa068b031a0006d9c1d026c6c4b10cb",
    ),
    "cluster_batch_dp_ir/fifo/open": (
        "24f0eceae0c2c0a599e82a39f1d9f3f1a7443798cc2f4569b3ae83af88b4ed77",
        "01d4ed4e90727f4784f3b20a864646e2c30d501b942ec0bf39c367da4c07aee1",
    ),
    "cluster_batch_dp_ir/fifo/closed": (
        "2234928f2ac4161add5aed1cfb6089656edd13b3c63934acafbec5d08bb7e9da",
        "7299073bdebe023324533352e8618c9f400d6bc82c649162e0bc15b0c1394410",
    ),
    "cluster_batch_dp_ir/window/open": (
        "18182f2f32d32188bf1c5f9b1e0567992a6318a0b64b366335b2576338d3242a",
        "e594e3e21a8541b1311bf12af89d1a9f183f754ea5c61996dfd4a09226b05a50",
    ),
    "cluster_batch_dp_ir/window/closed": (
        "66bb03e292513e899de0868bb5b3de57996f1548078b68e9181595dc751a58d6",
        "031def1ad9a5b763016c9f0655fe8c82e53241ac45b05eefc6ea5f5958086ea3",
    ),
    "cluster_batch_dp_ir/window-0ms/open": (
        "6e8244fbd8dd024702591a5c448d0b19a5f79b45f7f5a445766a59288a54fb8d",
        "cad87c3b509411b8448c05ccabe793a72d4512d7b7cef445f1f71009e7067abe",
    ),
    "cluster_batch_dp_ir/window-0ms/closed": (
        "c231bb763c9abf12c9a74beda151e7c7e3c2dfb6bfe3934286486bdb156493b5",
        "c4c59836334e251a3bb8d2a1d12216a0cab29a031c86b8161419e4d66169a69e",
    ),
    "cluster_batch_dp_ir/batch-5ms-max4/open": (
        "4a067f391c102bdaabb422316334a58ad4643fd5c6ec062ca5575d2556711745",
        "9283b5e30855e7d67957ffc02dce6959b790938c7f11841ce78d8a5d0d79b6e7",
    ),
    "cluster_batch_dp_ir/batch-5ms-max4/closed": (
        "f2bdd8a14b3d14acd15508917e111f24080e5d26941fec36537feb5adb7bcf8a",
        "ea642dcba1791986c01b5eb0c9ed7a7a7e3fb8e603a57ac7eb1ac933a8dc8516",
    ),
    "cluster_batch_dp_ir/continuous/open": (
        "4c3225db18a0a6b60990b83bfa82930df2a400ba8d3d20dc191d83aedf1f653b",
        "fa2a07ad052e32d2ecda51eeba3267a63a813283f3b2e83f67c94324fb6727fa",
    ),
    "cluster_batch_dp_ir/continuous/closed": (
        "04422faef721fbeee7b744b5161cd430a82826f3571f19370fcead7509bfb522",
        "a20a89db410e4975860d0650590c9517df4e3ca4e5206ebb72c0a1b84db008f5",
    ),
    "cluster_batch_dp_ir/continuous-depth1/open": (
        "3284c8cc9a2cec92e188a76c492228b199ffae163984806f4922332ea5132fed",
        "cad87c3b509411b8448c05ccabe793a72d4512d7b7cef445f1f71009e7067abe",
    ),
    "cluster_batch_dp_ir/continuous-depth1/closed": (
        "8e88501f09138c5ecbf43c4079a5d59541680f6eb80820bce294280f31a80fda",
        "c4c59836334e251a3bb8d2a1d12216a0cab29a031c86b8161419e4d66169a69e",
    ),
    "cluster_batch_dp_ir/continuous-caps/open": (
        "f91bd4cee7692764083fd3840f4037d0dd900d2c22e35b21a46bf1dee302efa5",
        "bc682bc2f486421efdcce10341af9aed3eef659a88ba84209bdef6cc7d09e14d",
    ),
    "cluster_batch_dp_ir/continuous-caps/closed": (
        "30c1acf610cc96bd31d2ed55b27c2afb5fe9ede453f69b0d8b7d5c40a5b8b993",
        "4e7f4cbbc78b0ff018fe9dc5eb015bad321df622557dec9a16e964c5f88e99a7",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_serving_run_matches_its_pin(case):
    assert _run(*case.split("/")) == PINS[case]


if __name__ == "__main__":
    for case in CASES:
        report, trace = _run(*case.split("/"))
        print(f'    "{case}": (\n        "{report}",\n        "{trace}",\n    ),')
