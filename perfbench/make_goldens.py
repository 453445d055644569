"""Record the report digests that full-eval and des-sims check against.

    python3 perfbench/make_goldens.py

Run from the repository root at the commit whose outputs are correct.
It runs every input seed once through the process under test and
rewrites ``goldens.json``; a change that alters a report on purpose
re-records them in the same commit.
"""

from __future__ import annotations

import json
import os

from run import GOLDEN_SEEDS, HERE, Child, des_inputs, eval_seed


def main() -> None:
    out: dict = {"full-eval": {}, "des-sims": {}}
    for mode, workload in (("eval", "full-eval"), ("des", "des-sims")):
        child = Child(mode, False)
        try:
            for index in range(GOLDEN_SEEDS):
                if mode == "eval":
                    reply = child.ask(op="run", seed=eval_seed(index))
                    out[workload][str(index)] = reply["digest"]
                else:
                    reply = child.ask(op="run", **des_inputs(index))
                    out[workload][str(index)] = {
                        name: value[1]
                        for name, value in reply["engines"].items()
                    }
        finally:
            child.close()
    with open(os.path.join(HERE, "goldens.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
