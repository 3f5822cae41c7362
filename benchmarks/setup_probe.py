"""One cold set-up, timed from inside a fresh interpreter: import
crystalpretrain, read the manifest, initialise the model's parameters.

    python3 benchmarks/setup_probe.py MANIFEST MODEL_CONFIG_JSON EDGE_WIDTH

Prints the seconds taken. The benchmark runs several of these one after
another and reports the median as setup_s.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crystalpretrain import datasets, model  # noqa: E402


def main() -> None:
    manifest_path, model_json, edge_width = sys.argv[1:4]
    datasets.load_manifest(manifest_path)
    model.init_params(model.ModelConfig(**json.loads(model_json)), seed=0,
                      edge_feature_width=int(edge_width))
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
