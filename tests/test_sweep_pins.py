"""Byte pins of sweep output: records and summaries for every base class.

Each case runs `sweep` + `write_outcome` on a small family and compares the
sha256 of `instances.jsonl` and of `summary.json` with the digests recorded
when the test was written. Every record carries its class labels, so these
pins also freeze what `classify` reports on every enumerated graph.
"""

from __future__ import annotations

import hashlib

import pytest

from tempvor import FamilySpec, sweep, write_outcome

FAMILIES = {
    "path": FamilySpec("path", (1, 6), (1, 2)),
    "cycle": FamilySpec("cycle", (3, 6), (1, 2)),
    "tree": FamilySpec("tree", (1, 4), (1, 2)),
    "grid": FamilySpec("grid", (4, 12), (1, 1)),
    "clique": FamilySpec("clique", (1, 4), (1, 2), "growing"),
    "complete_k_partite": FamilySpec("complete_k_partite", (1, 6), (1, 1)),
    "split": FamilySpec("split", (1, 4), (1, 1)),
    "threshold": FamilySpec("threshold", (1, 5), (1, 1)),
    # budgeted and three-layer families
    "cycle_budget1": FamilySpec("cycle", (3, 6), (1, 3), "any", 1),
    "tree_growing_budget2": FamilySpec("tree", (2, 4), (1, 3), "growing", 2),
    "path_shrinking_tau3": FamilySpec("path", (2, 5), (3, 3), "shrinking"),
    "clique_budget2": FamilySpec("clique", (3, 4), (1, 3), "any", 2),
    # lifetimes whose sentinels tau + n + 1 cross 128 (126..129), where the
    # equilibrium batch widens its fields, and 256 (255..258), where the
    # distance batch widens its lanes
    "path_tau_across_128": FamilySpec("path", (3, 4), (122, 125), "any", 1),
    "path_tau_across_256": FamilySpec("path", (3, 3), (251, 254), "any", 1),
}

# (family, game) -> (records sha256, summary sha256)
PINS = {
    ("path", "vor"): (
        "185f043ddee4f74d9c3c1bf8c08803c826c87075803b167a5ecde61c0d00cd44",
        "b31e101307606dbe88a5da6a428a374ee1fcc7b40f8726259fef4575d1963568",
    ),
    ("path", "rvor"): (
        "bde808194de89d0359f0a8bc6a993f7cc5ddd518b7f8bba6d570f75dfe1f6c11",
        "b7a5ab4ba9b5b721d77d7026da32170fb15ddf8a7d00a7ae2148d35a8adfc57e",
    ),
    ("cycle", "vor"): (
        "913f7953bf950247d24145b02a8edb9cb7e2094e7337669bcba29a8f6e723e99",
        "da43877f85551bf292481cb57bef21c2466864ea0c4d9ec4da8be7e975be96d8",
    ),
    ("cycle", "rvor"): (
        "a560bcc302321ba74d16e777857cf62e1b74ba7f755bbfced09fd9679c20f038",
        "c9c56e5234638e3d6c490d636503bb5905aa7f05b4fd5a7f7f878653420d3858",
    ),
    ("tree", "vor"): (
        "eab9c28d04704df053b9a000d204e472b5a411d981da03a48d38c021f72fa20a",
        "28e95e252241b74cf2700472f5f74029614569f1cede81c33e625949300d0c5f",
    ),
    ("tree", "rvor"): (
        "187f0fddc2f47be02480f994da0f7dedd3e798a5e536cd22a58ef63fe341557f",
        "8a211b09219fe9b61733274041ab5d183770861248753991b046152e092566d9",
    ),
    ("grid", "vor"): (
        "b910ebfed2d29746936971bf2198bbe61bb109ab15e66e93ce7f8d6ef9a51432",
        "0be814e9bc3857e92bd81921b324876d42cc0e068212c1b53e24bc90fc08eadd",
    ),
    ("grid", "rvor"): (
        "2cf96f1f7a140261fa41e82a7fc52f2bb7df9204a5cbf762d1b7edd15c69829c",
        "cc7e442070bfd31524dad3049bc246f5b4a3636c63dd3aa367db7b5ca6606c64",
    ),
    ("clique", "vor"): (
        "638243eddd804115fce87b3a6133b6695fdccaab4a00bd95f8ee9d314dab167e",
        "8ff42ae2ceec9549c7222be39dd84016b26db60289a8bb8897099442c93badab",
    ),
    ("clique", "rvor"): (
        "d2e58bbea134948d7c8bcefe04bad6b7e56fddb14d2236af3aa769f4ad25ff29",
        "c36f85bdb1b467b01a70bbe7a23c976107d3c6c07417e6c10ffbba320204baae",
    ),
    ("complete_k_partite", "vor"): (
        "5ddd990f22f43b89d42e3243db7ba52ee95eec6c60bd34cead8649096af2bc00",
        "11d048f82c1b814b2a90f0f26c48d7d6133e3d707607f60e2f76b8f1b3ec70fe",
    ),
    ("complete_k_partite", "rvor"): (
        "bbba96481e05e20e3b1f71dd993539d785c0ab21e88012aff96ea582b0fc07d4",
        "2cae3ab028d5465f19b6c4f2ffc2666d94f45d36ce8efb43d61023917b0ba99d",
    ),
    ("split", "vor"): (
        "3890c45ef771d82616a34d37583792ef3f008cd0190b5c0001ebc2a4f86c238d",
        "30505d1f2a4ad284c829987c8a57d6ce0b3d8a8668207dfa905334dee62a06c3",
    ),
    ("split", "rvor"): (
        "41a9c6b4694a29cb643d69d05bc2fae5cad7e57f2ff21dbe09e6f026b523128f",
        "6d55f794aa5cf31c9fc2edf106dcb20dbc681378cf2f6dc984f893cb39766824",
    ),
    ("threshold", "vor"): (
        "e80bc29ae09e983c698999782f55d7e1d35c20d4ca5db6cbe6e32cde18b84b18",
        "a05cb3c7123323148f2dfc5c22e7918d817a522fab4e9ac4468b6f482d87d9d6",
    ),
    ("threshold", "rvor"): (
        "dfa936ebe741cbb8c684cbeb62e8277e33639e98ceb579e24531ee121388082b",
        "e416a5ae0d1338e50d1b24aafd808c91b04c33ceb984a341407c8e34b6f10c1e",
    ),
    ("cycle_budget1", "vor"): (
        "b05e207eddac1667e1781b9ff0682aa7d83aa9a322288c36d4a4226f293a1e4f",
        "7c9f3cb2b4b8a681c5e62c5c5ac4e607d5634278e4f87d00a2d7ce8df97d37b5",
    ),
    ("cycle_budget1", "rvor"): (
        "07981c6e6131640c34688abbf30d94886ac79260edb89c5ce4ac659231abd9f3",
        "7322bd96ae6e491dc2e62919afe758e5218e41e3dd8d2e546eb5c9639ffa4029",
    ),
    ("tree_growing_budget2", "vor"): (
        "19ef5a349555ff2fa565f7aa12fab0e642e80eb7253bc287b1e1ba38cc9e6c4c",
        "1751b5bfb6dfe8f4bb429cd79adc38b4cb391126d2bf2901b6008bfb46b338ee",
    ),
    ("tree_growing_budget2", "rvor"): (
        "af4ec6a1640401cda6a9bf64915b17d639204b7cf340240bdef97c0243e5e518",
        "590cd7d1e148878eae8c14c9a0b2ea276e89bcc65c400e46b8bced8415ba7f12",
    ),
    ("path_shrinking_tau3", "vor"): (
        "4f4376755d87c9b085d7900416ca81b17ded349073cd03bc79d85fd8f51d98be",
        "af117a6278ad08168f8ace87268d88830b88c2b9c303b025a0818ae751d8374e",
    ),
    ("path_shrinking_tau3", "rvor"): (
        "5f03042cf822451e08bb361f107303a0781673ba710f5a3daf47c589e331ce44",
        "1264b58baa753ce1bf17b7a29cf4a3f6afe9296f16da9be6ccd78f934a07f8ba",
    ),
    ("clique_budget2", "vor"): (
        "a25fc84de5c9dcea6f555d3c828ab6e67ab35796b75632ad42d8bd7b7ed95300",
        "1f18107f4e1ea9435c5bc4804940abf046369c44c99791a2ca050781c789eb70",
    ),
    ("clique_budget2", "rvor"): (
        "87151e868625d04fb1ee1aea08d787e172ed1580e00ede6672570207878f7a86",
        "35407a1461bd22566a687105696df1b2c17bfd688616379e9b55b9cb792de8ae",
    ),
    ("path_tau_across_128", "vor"): (
        "0749a043ce0337cd35ea13e8765b9b9746170861fe9d4118175ece3181f58e86",
        "945096e2dc17340c7b23ab990702af4a37efe0995e7acb5b8615bce286d3298d",
    ),
    ("path_tau_across_128", "rvor"): (
        "c3c8d63d83ebf073b83237c38f3719dff51e4f91aeb506571cca6177a5235a38",
        "2114dd5b9a475a5d017c677b277c07bba52ef9892fd6fecda222220df18a9f12",
    ),
    ("path_tau_across_256", "vor"): (
        "db667d6f646f7cf730cf932372f05c18babc5160629d6bb74c5ab51ba4b018ae",
        "cbefa931bda7fd8bae0440f4689f480f2f694ad0d91885e4c751e9ee1d43c78f",
    ),
    ("path_tau_across_256", "rvor"): (
        "d34e23adebe5f13c9d61de1d49a7ea617ac42482c7231d0736cb684f1fb3cdb9",
        "2b472892d4806f3a5e604163fbbb4517ca266d6e95486b5e6179394401d951e9",
    ),
}


def _digests(tmp_path, family, game):
    records, summary = write_outcome(sweep(FAMILIES[family], game), tmp_path)
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (records, summary))


@pytest.mark.parametrize("family,game", sorted(PINS))
def test_sweep_output_is_pinned(tmp_path, family, game):
    assert _digests(tmp_path, family, game) == PINS[family, game]
