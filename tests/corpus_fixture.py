"""Ten-paper synthetic corpus for pipeline and end-to-end tests.

Each paper spec carries its catalog row, full text, canned stage-2 and
stage-3 outputs, and the alignment matches the mock model "finds".
A recording pass runs the real pipeline against a scripted responder
and stores every (prompt, response) pair as replay-mock files; tests
then replay those files and compare against EXPECTED_EDGES, a
hand-enumerated oracle kept independent of the graph code.

The corpus exercises: internal references, forward alignment, weak and
zero-match alignments, a dash-split contribution, a reference aligned
late (cited paper extracted after the citing one), artifact and
unresolvable references, and year/date metadata for task generation
and backtesting.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from contribgraph import evaluation, taskgen
from contribgraph.backends import GenerationBackend, MockBackend, prompt_hash
from contribgraph.embedding import MockEmbeddingProvider, build_index
from contribgraph.frontier import Catalog
from contribgraph.graph import ContributionGraph
from contribgraph.jsonl import write_jsonl
from contribgraph.pipeline import PaperInput, Pipeline

# Shared knobs for the end-to-end flow (builder and tests must agree).
E2E_SEED = 7
E2E_K = 10
E2E_YEARS = [2021, 2022, 2023, 2024, 2025]
E2E_PER_YEAR = 2
EMBED_DIM = 64
MOCK_TAG = "mock:replay"
CUTOFFS = {MOCK_TAG: "2022-06"}


def _p(name, description, justification, core, refs):
    return {
        "name": name,
        "description": description,
        "justification": justification,
        "core": core,
        "refs": refs,
    }


def _paper_ref(title, year, venue, corpus_id, first_author=None):
    ref = {"kind": "paper", "paper_title": title, "year": year, "venue": venue,
           "corpus_id": corpus_id}
    if first_author:
        ref["first_author"] = first_author
    return ref


def _internal_ref(name, key, justification):
    return {"kind": "internal", "contribution_name": name, "contribution_key": key,
            "justification": justification}


def _other_ref(name, url):
    return {"kind": "other", "name": name, "url": url}


def _c(name, description, types, sections):
    return {"name": name, "description": description, "types": types, "sections": sections}


def _entry(key, stage2_item, prereqs):
    return {"key": key, **stage2_item, "prereqs": prereqs}


PAPERS = [
    {
        "corpus_id": "7000001",
        "title": "Gated recurrent sequence encoders for text",
        "year": 2016,
        "date": "2016-06",
        "author_last": "Ahlberg",
        "stage2": [
            _c(
                "Gated recurrent encoder architecture for variable-length text",
                "An encoder built from gated recurrent units that folds variable-length "
                "token sequences into fixed-size vectors, with update and reset gates "
                "controlling how much history each step keeps. It became a standard "
                "text encoder before attention-based stacks.",
                [("models_or_architectures", "New recurrent encoder design.")],
                ["Section 3: Encoder"],
            ),
            _c(
                "Sequence-level pretraining objective for recurrent encoders",
                "A self-supervised objective that trains the gated encoder to "
                "reconstruct shuffled sentence order, yielding transferable sequence "
                "representations without labels.",
                [("techniques_algorithms", "Self-supervised objective for encoders.")],
                ["Section 4: Pretraining"],
            ),
        ],
        "stage3": {},  # filled below; keys align with stage2 order
        "alignments": {},
    },
    {
        "corpus_id": "7000002",
        "title": "Self-attentive sequence transduction",
        "year": 2017,
        "date": "2017-06",
        "author_last": "Brandt",
        "stage2": [
            _c(
                "Self-attention layer replacing recurrence in sequence transduction",
                "A transduction layer in which every position attends to every other "
                "position directly, removing the sequential bottleneck of recurrent "
                "encoders and allowing full parallel processing of sequences.",
                [("models_or_architectures", "Attention-only transduction layer.")],
                ["Section 2: Model"],
            ),
            _c(
                "Multi-head attention with parallel projection subspaces",
                "Several attention functions run in parallel over learned projections "
                "of the inputs, letting the layer mix information from distinct "
                "representation subspaces at once.",
                [("techniques_algorithms", "Parallel attention heads.")],
                ["Section 2.2: Heads"],
            ),
            _c(
                "Additive position signals for order information in attention stacks",
                "Deterministic position signals added to token embeddings so an "
                "order-free attention stack can still exploit sequence order.",
                [("representational", "Injects order into order-free attention.")],
                ["Section 2.3: Positions"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000001", "Gated recurrent sequence encoders"): [
                (
                    "7000001.c0",
                    "The gated recurrent encoder is the dominant prior approach that "
                    "self-attention replaces.",
                    "strong",
                )
            ],
        },
    },
    {
        "corpus_id": "7000003",
        "title": "Pretrained bidirectional encoders for language understanding",
        "year": 2018,
        "date": "2018-10",
        "author_last": "Chen",
        "stage2": [
            _c(
                "Bidirectional self-attention encoder pretrained with token masking",
                "A deep self-attention encoder in which every token sees both left and "
                "right context, pretrained by masking tokens and predicting them from "
                "the full sentence, then fine-tuned per task.",
                [("models_or_architectures", "Bidirectional pretrained encoder.")],
                ["Section 3: Approach"],
            ),
            _c(
                "Pretraining objectives and transfer evaluation suite",
                "The paper's pretraining objectives together with a battery of transfer "
                "evaluations measuring how pretrained representations move to "
                "downstream language tasks.",
                [("empirical_evaluation", "Transfer evaluation of pretraining.")],
                ["Section 4: Evaluation"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000002", "Self-attention architecture"): [
                (
                    "7000002.c0",
                    "The bidirectional encoder is a stack of exactly these "
                    "self-attention layers.",
                    "strong",
                ),
                (
                    "7000002.c1",
                    "Multi-head attention is a component of the encoder stack.",
                    "weak",
                ),
            ],
            ("7000001", "Sequence-level pretraining objectives"): [
                (
                    "7000001.c1",
                    "The earlier sequence-level objective is an ancestor of the "
                    "transfer-evaluation methodology.",
                    "weak",
                )
            ],
        },
    },
    {
        "corpus_id": "7000004",
        "title": "Compact pretrained encoders via distillation",
        "year": 2019,
        "date": "2019-05",
        "author_last": "Duarte",
        "stage2": [
            _c(
                "Distilled compact bidirectional encoder",
                "A small self-attention encoder trained to mimic a large pretrained "
                "bidirectional encoder, retaining most downstream accuracy at a "
                "fraction of the inference cost.",
                [("models_or_architectures", "Compact student encoder.")],
                ["Section 3: Student"],
            ),
            _c(
                "Task-agnostic distillation recipe for pretraining",
                "A distillation procedure applied during pretraining rather than per "
                "task, producing one student encoder reusable across downstream tasks.",
                [("research_methods_procedures", "General-purpose distillation recipe.")],
                ["Section 4: Recipe"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000003", "Pretrained bidirectional encoder"): [
                (
                    "7000003.c0",
                    "The teacher model is the pretrained bidirectional encoder itself.",
                    "strong",
                )
            ],
            ("7000002", "Self-attentive transduction architecture"): [],
        },
    },
    {
        "corpus_id": "7000005",
        "title": "Retrieval-augmented text generation",
        "year": 2020,
        "date": "2020-07",
        "author_last": "Egede",
        "stage2": [
            _c(
                "Retrieval-augmented generator conditioning on fetched passages",
                "A text generator that first retrieves supporting passages from a "
                "corpus and then conditions generation on them, grounding outputs in "
                "retrievable evidence instead of parameters alone.",
                [("models_or_architectures", "Generator conditioned on retrieval.")],
                ["Section 3: Architecture"],
            ),
            _c(
                "End-to-end training of retriever and generator",
                "A training scheme propagating the generation loss into the retriever, "
                "so retrieval improves jointly with generation quality.",
                [("techniques_algorithms", "Joint training of both components.")],
                ["Section 4: Training"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000003", "Pretrained bidirectional encoders"): [
                (
                    "7000003.c0",
                    "The retriever's query and passage encoders are initialized from "
                    "the pretrained bidirectional encoder, an enabling but ancillary "
                    "ingredient here.",
                    "weak",
                )
            ],
        },
    },
    {
        "corpus_id": "7000006",
        "title": "Dense passage retrieval for open-domain questions",
        "year": 2019,
        "date": "2019-11",
        "author_last": "Farkas",
        "stage2": [
            _c(
                "Dense dual-encoder passage retriever",
                "A retriever embedding questions and passages into one dense vector "
                "space with two encoders, replacing sparse lexical matching and "
                "retrieving by inner product.",
                [("models_or_architectures", "Dense dual-encoder retriever.")],
                ["Section 3: Retriever"],
            ),
            _c(
                "In-batch negative training for retrieval",
                "A training trick treating other passages in the batch as negatives, "
                "giving many negatives per question at no extra encoding cost.",
                [("techniques_algorithms", "Efficient negative sampling.")],
                ["Section 4: Training"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000003", "Pretrained bidirectional encoder"): [
                (
                    "7000003.c0",
                    "Both dual encoders are fine-tuned from the pretrained "
                    "bidirectional encoder.",
                    "strong",
                )
            ],
            # Late binding: the retrieval-augmented paper cited this one
            # before it was extracted.
            ("7000006", "Dense passage retrieval"): [
                (
                    "7000006.c0",
                    "The dense dual-encoder retriever is precisely the retrieval "
                    "component the generator fetches passages with.",
                    "strong",
                )
            ],
        },
    },
    {
        "corpus_id": "7000007",
        "title": "Instruction-tuned generation across tasks",
        "year": 2021,
        "date": "2021-06",
        "author_last": "Goswami",
        "stage2": [
            _c(
                "Instruction-tuned generator following natural-language task descriptions",
                "A generator fine-tuned on many tasks phrased as natural-language "
                "instructions, so unseen tasks can be performed zero-shot from their "
                "descriptions alone.",
                [("models_or_architectures", "Instruction-following generator.")],
                ["Section 3: Method"],
            ),
            _c(
                "Multi-task instruction dataset covering diverse task templates",
                "A dataset of task instances rewritten under many instruction "
                "templates across task families, used to teach instruction following.",
                [("resource_dataset", "Instruction-format training corpus.")],
                ["Section 4: Data"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000005", "Retrieval-augmented generation framework"): [
                (
                    "7000005.c0",
                    "Retrieval-augmented generation is an ancillary capability the "
                    "instruction-tuned generator can delegate to.",
                    "weak",
                )
            ],
            ("7000004", "Compact efficient encoders"): [
                (
                    "7000004.c0",
                    "Compact distilled encoders make large-scale instruction tuning "
                    "affordable, a peripheral enabler.",
                    "weak",
                )
            ],
        },
    },
    {
        "corpus_id": "7000008",
        "title": "Chain-of-thought prompting for multi-step reasoning",
        "year": 2022,
        "date": "2022-03",
        "author_last": "Haruna",
        "stage2": [
            _c(
                "Intermediate reasoning traces improve multi-step task accuracy",
                "The finding that prompting a generator to produce intermediate "
                "reasoning steps before its answer substantially improves accuracy on "
                "multi-step problems.",
                [("theoretical_insight", "Reasoning traces causally improve accuracy.")],
                ["Section 5: Results"],
            ),
            _c(
                "Prompt format eliciting step-by-step rationales",
                "A prompt template with worked examples whose answers include "
                "step-by-step rationales, reliably eliciting reasoning traces from "
                "instruction-following generators.",
                [("techniques_algorithms", "Prompting technique for rationales.")],
                ["Section 3: Prompting"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000007", "Instruction-tuned generators"): [
                (
                    "7000007.c0",
                    "Step-by-step prompting only works on generators already tuned to "
                    "follow instructions.",
                    "strong",
                )
            ],
            ("7000002", "Attention-based sequence models"): [
                (
                    "7000002.c0",
                    "Self-attention underlies the generators studied, background "
                    "rather than a direct basis.",
                    "weak",
                )
            ],
        },
    },
    {
        "corpus_id": "7000009",
        "title": "Tool-augmented reasoning agents",
        "year": 2023,
        "date": "2023-09",
        "author_last": "Iqbal",
        "stage2": [
            _c(
                "Agent loop interleaving tool calls with reasoning steps",
                "An agent architecture alternating between reasoning-trace steps and "
                "calls to external tools, feeding tool results back into the trace to "
                "solve tasks neither could alone.",
                [("models_or_architectures", "Reason-act agent loop.")],
                ["Section 3: Agent"],
            ),
            _c(
                "Benchmark of tool-use tasks for reasoning agents",
                "A benchmark of tasks requiring calculators, search, and code "
                "execution, measuring whether agents invoke tools correctly inside "
                "their reasoning.",
                [("resource_benchmark", "Benchmark for tool-use competence.")],
                ["Section 4: Benchmark"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000008", "Step-by-step reasoning traces"): [
                (
                    "7000008.c0",
                    "The agent loop builds directly on the finding that reasoning "
                    "traces improve multi-step accuracy.",
                    "strong",
                ),
                (
                    "7000008.c1",
                    "The rationale-eliciting prompt format is reused inside the loop.",
                    "weak",
                ),
            ],
            ("7000007", "Multi-task instruction data"): [
                (
                    "7000007.c1",
                    "Benchmark task templates are adapted from the instruction "
                    "dataset's format.",
                    "weak",
                )
            ],
        },
    },
    {
        "corpus_id": "7000010",
        "title": "Self-refining agent pipelines with verifier feedback",
        "year": 2025,
        "date": "2025-01",
        "author_last": "Jonsdottir",
        "stage2": [
            _c(
                "Self-refinement loop with automated verifier feedback",
                "An agent pipeline that drafts a solution, scores it with an automated "
                "verifier, and revises conditioned on the verifier's critique, "
                "iterating until the score stabilizes.",
                [("models_or_architectures", "Draft-verify-revise agent pipeline.")],
                ["Section 3: Loop"],
            ),
            _c(
                "Verifier model scoring intermediate agent outputs",
                "A trained verifier assigning scalar quality scores and textual "
                "critiques to intermediate agent outputs, supervising refinement "
                "without human feedback.",
                [("models_or_architectures", "Learned verifier for agent outputs.")],
                ["Section 4: Verifier"],
            ),
        ],
        "stage3": {},
        "alignments": {
            ("7000009", "Tool-using reasoning agents"): [
                (
                    "7000009.c0",
                    "The refinement loop extends the tool-augmented agent loop with a "
                    "verifier stage.",
                    "strong",
                )
            ],
            ("7000008", "Step-by-step reasoning"): [
                (
                    "7000008.c0",
                    "Reasoning traces are what the verifier critiques, a supporting "
                    "rather than central basis.",
                    "weak",
                )
            ],
        },
    },
]

# Stage-3 canned outputs (echo of stage 2 plus prerequisites).
_BY_ID = {p["corpus_id"]: p for p in PAPERS}


def _fill_stage3() -> None:
    s = _BY_ID

    a = s["7000001"]
    a["stage3"] = {
        "0": [
            _entry("0", a["stage2"][0], [
                _p("Long short-term memory cells",
                   "Gating units that preserve gradients over long sequences.",
                   "The encoder's gates are simplifications of these memory cells.",
                   "core",
                   [_paper_ref("Long short-term memory", 1997, "Neural Computation", None)]),
            ]),
        ],
        "1": [
            _entry("1", a["stage2"][1], [
                _p("Gated recurrent encoder architecture",
                   "The encoder whose representations the objective pretrains.",
                   "The objective is defined over this encoder's outputs.",
                   "core",
                   [_internal_ref(a["stage2"][0]["name"], "0",
                                  "The objective trains exactly this encoder.")]),
                _p("Sequence preprocessing toolkit",
                   "Tokenization and batching utilities used to prepare corpora.",
                   "Needed to run pretraining at corpus scale.",
                   "peripheral",
                   [_other_ref("seqtk", "https://example.org/seqtk")]),
            ]),
        ],
    }

    b = s["7000002"]
    b["stage3"] = {
        "0": [
            _entry("0", b["stage2"][0], [
                _p("Gated recurrent sequence encoders",
                   "Recurrent encoders with gating, the prior standard for text.",
                   "Self-attention is motivated as a replacement for these encoders.",
                   "core",
                   [_paper_ref("Gated recurrent sequence encoders for text", 2016,
                               "EMNLP", 7000001,
                               first_author={"last_name": "Ahlberg",
                                             "first_name": "Siri", "middle_names": ""})]),
            ]),
        ],
        "1": [
            _entry("1", b["stage2"][1], [
                _p("Self-attention layer",
                   "The single-head attention layer heads are built from.",
                   "Heads are parallel copies of this layer over projections.",
                   "core",
                   [_internal_ref(b["stage2"][0]["name"], "0",
                                  "Multi-head attention generalizes the base layer.")]),
            ]),
        ],
        "2": [
            _entry("2", b["stage2"][2], [
                _p("Self-attention layer",
                   "The order-free attention layer needing position information.",
                   "Position signals exist because this layer ignores order.",
                   "core",
                   [_internal_ref(b["stage2"][0]["name"], "0",
                                  "Position signals compensate for the layer's order-freeness.")]),
                _p("Convolutional sequence models",
                   "Convolutional encoders as an alternative parallel architecture.",
                   "Benchmarked against as the nearest parallel competitor.",
                   "peripheral",
                   [_paper_ref("Convolutional sequence to sequence learning", 2017,
                               "ICML", None)]),
            ]),
        ],
    }

    c = s["7000003"]
    c["stage3"] = {
        "0": [
            _entry("0", c["stage2"][0], [
                _p("Self-attention architecture",
                   "Attention-only transduction layers processing sequences in parallel.",
                   "The encoder is a bidirectional stack of these layers.",
                   "core",
                   [_paper_ref("Self-attentive sequence transduction", 2017,
                               "NeurIPS", 7000002)]),
            ]),
        ],
        # The evaluation contribution splits into objective and suite.
        "1": [
            _entry("1-1", _c(
                "Masked token prediction objective",
                "A pretraining objective masking tokens and predicting them from "
                "both directions of context.",
                [("techniques_algorithms", "Self-supervised masking objective.")],
                ["Section 4: Evaluation"],
            ), [
                _p("Bidirectional masked encoder",
                   "The encoder trained by the masking objective.",
                   "The objective is defined over this encoder.",
                   "core",
                   [_internal_ref(c["stage2"][0]["name"], "0",
                                  "The objective trains the bidirectional encoder.")]),
                _p("Cloze task formulation",
                   "Fill-in-the-blank task design from psycholinguistics.",
                   "Masking is a mechanized cloze task.",
                   "peripheral",
                   [_paper_ref("Cloze procedure: a new tool for measuring readability",
                               1953, "Journalism Quarterly", None)]),
            ]),
            _entry("1-2", _c(
                "Transfer evaluation suite across language tasks",
                "A battery of downstream tasks measuring transfer of pretrained "
                "representations.",
                [("empirical_evaluation", "Downstream transfer measurements.")],
                ["Section 4: Evaluation"],
            ), [
                _p("Sequence-level pretraining objectives",
                   "Earlier self-supervised objectives for sequence encoders.",
                   "The suite's design follows earlier transfer evaluations of "
                   "such objectives.",
                   "peripheral",
                   [_paper_ref("Gated recurrent sequence encoders for text", 2016,
                               "EMNLP", 7000001)]),
            ]),
        ],
    }

    d = s["7000004"]
    d["stage3"] = {
        "0": [
            _entry("0", d["stage2"][0], [
                _p("Pretrained bidirectional encoder",
                   "The large bidirectional encoder used as the teacher.",
                   "The student mimics this model's behavior.",
                   "core",
                   [_paper_ref("Pretrained bidirectional encoders for language understanding",
                               2018, "NAACL", 7000003)]),
                _p("Knowledge distillation",
                   "Training small models on soft targets from large ones.",
                   "Distillation is the transfer mechanism used.",
                   "core",
                   [_paper_ref("Distilling the knowledge in a neural network", 2015,
                               "NeurIPS Workshop", None)]),
            ]),
        ],
        "1": [
            _entry("1", d["stage2"][1], [
                _p("Compact distilled encoder",
                   "The student encoder the recipe produces.",
                   "The recipe exists to produce this artifact.",
                   "core",
                   [_internal_ref(d["stage2"][0]["name"], "0",
                                  "The recipe's output is the compact encoder.")]),
                _p("Self-attentive transduction architecture",
                   "The attention architecture both teacher and student share.",
                   "Background architecture; no specific component is matched.",
                   "peripheral",
                   [_paper_ref("Self-attentive sequence transduction", 2017,
                               "NeurIPS", 7000002)]),
            ]),
        ],
    }

    e = s["7000005"]
    e["stage3"] = {
        "0": [
            _entry("0", e["stage2"][0], [
                _p("Dense passage retrieval",
                   "Dual-encoder retrieval over dense vectors.",
                   "The generator fetches passages with exactly this retriever.",
                   "core",
                   [_paper_ref("Dense passage retrieval for open-domain questions",
                               2019, "EMNLP", 7000006)]),
                _p("Pretrained bidirectional encoders",
                   "Pretrained encoders initializing retriever components.",
                   "Initialization detail rather than the core idea.",
                   "peripheral",
                   [_paper_ref("Pretrained bidirectional encoders for language understanding",
                               2018, "NAACL", 7000003)]),
            ]),
        ],
        "1": [
            _entry("1", e["stage2"][1], [
                _p("Retrieval-conditioned generator",
                   "The architecture whose two halves are trained jointly.",
                   "Joint training presupposes the architecture.",
                   "core",
                   [_internal_ref(e["stage2"][0]["name"], "0",
                                  "Training couples the retriever and generator halves.")]),
            ]),
        ],
    }

    f = s["7000006"]
    f["stage3"] = {
        "0": [
            _entry("0", f["stage2"][0], [
                _p("Pretrained bidirectional encoder",
                   "The pretrained encoder both dual encoders start from.",
                   "Question and passage encoders are fine-tuned from it.",
                   "core",
                   [_paper_ref("Pretrained bidirectional encoders for language understanding",
                               2018, "NAACL", 7000003)]),
            ]),
        ],
        "1": [
            _entry("1", f["stage2"][1], [
                _p("Dense dual-encoder retriever",
                   "The retriever whose training the trick accelerates.",
                   "In-batch negatives are defined for this dual-encoder setup.",
                   "core",
                   [_internal_ref(f["stage2"][0]["name"], "0",
                                  "The trick trains the dual-encoder retriever.")]),
            ]),
        ],
    }

    g = s["7000007"]
    g["stage3"] = {
        "0": [
            _entry("0", g["stage2"][0], [
                _p("Retrieval-augmented generation framework",
                   "Generation grounded in retrieved passages.",
                   "An ancillary capability instruction tuning can exploit.",
                   "peripheral",
                   [_paper_ref("Retrieval-augmented text generation", 2020,
                               "NeurIPS", 7000005)]),
                _p("Compact efficient encoders",
                   "Distilled encoders cheap enough for large-scale tuning.",
                   "Peripheral cost enabler for the tuning runs.",
                   "peripheral",
                   [_paper_ref("Compact pretrained encoders via distillation", 2019,
                               "ACL", 7000004)]),
                _p("Pretrained encoder-decoder models",
                   "General text-to-text pretrained models.",
                   "The tuned generator starts from such a model.",
                   "core",
                   [_paper_ref("Exploring transfer learning with a unified text-to-text model",
                               2020, "JMLR", None)]),
            ]),
        ],
        "1": [
            _entry("1", g["stage2"][1], [
                _p("Instruction-following generator",
                   "The generator the dataset teaches.",
                   "The dataset exists to train this generator.",
                   "core",
                   [_internal_ref(g["stage2"][0]["name"], "0",
                                  "The dataset supervises instruction following.")]),
            ]),
        ],
    }

    h = s["7000008"]
    h["stage3"] = {
        "0": [
            _entry("0", h["stage2"][0], [
                _p("Instruction-tuned generators",
                   "Generators that follow natural-language instructions.",
                   "The accuracy effect only appears in instruction-tuned models.",
                   "core",
                   [_paper_ref("Instruction-tuned generation across tasks", 2021,
                               "ICLR", 7000007)]),
                _p("Attention-based sequence models",
                   "The underlying attention architecture of the generators.",
                   "Architectural background for the studied models.",
                   "peripheral",
                   [_paper_ref("Self-attentive sequence transduction", 2017,
                               "NeurIPS", 7000002)]),
            ]),
        ],
        "1": [
            _entry("1", h["stage2"][1], [
                _p("Reasoning-trace accuracy effect",
                   "The finding that traces improve multi-step accuracy.",
                   "The format is engineered to elicit the effect.",
                   "core",
                   [_internal_ref(h["stage2"][0]["name"], "0",
                                  "The template operationalizes the finding.")]),
            ]),
        ],
    }

    i = s["7000009"]
    i["stage3"] = {
        "0": [
            _entry("0", i["stage2"][0], [
                _p("Step-by-step reasoning traces",
                   "Intermediate reasoning steps produced before answers.",
                   "The agent loop interleaves tool calls into these traces.",
                   "core",
                   [_paper_ref("Chain-of-thought prompting for multi-step reasoning",
                               2022, "NeurIPS", 7000008)]),
            ]),
        ],
        "1": [
            _entry("1", i["stage2"][1], [
                _p("Tool-augmented agent loop",
                   "The agent the benchmark evaluates.",
                   "Benchmark tasks are designed around the loop's abilities.",
                   "core",
                   [_internal_ref(i["stage2"][0]["name"], "0",
                                  "The benchmark measures this agent design.")]),
                _p("Multi-task instruction data",
                   "Instruction-format task templates.",
                   "Task phrasing reuses the instruction templates.",
                   "peripheral",
                   [_paper_ref("Instruction-tuned generation across tasks", 2021,
                               "ICLR", 7000007)]),
            ]),
        ],
    }

    j = s["7000010"]
    j["stage3"] = {
        "0": [
            _entry("0", j["stage2"][0], [
                _p("Tool-using reasoning agents",
                   "Agents interleaving reasoning with tool calls.",
                   "The refinement loop wraps such an agent.",
                   "core",
                   [_paper_ref("Tool-augmented reasoning agents", 2023,
                               "ICLR", 7000009)]),
                _p("Step-by-step reasoning",
                   "Reasoning traces as the unit the verifier critiques.",
                   "Supporting basis for critiquing intermediate steps.",
                   "peripheral",
                   [_paper_ref("Chain-of-thought prompting for multi-step reasoning",
                               2022, "NeurIPS", 7000008)]),
            ]),
        ],
        "1": [
            _entry("1", j["stage2"][1], [
                _p("Self-refinement loop",
                   "The loop the verifier's scores drive.",
                   "The verifier exists to supervise the loop.",
                   "core",
                   [_internal_ref(j["stage2"][0]["name"], "0",
                                  "Verifier scores gate the refinement loop.")]),
            ]),
        ],
    }


_fill_stage3()

EXTRACTION_ORDER = [p["corpus_id"] for p in PAPERS]

# Hand-enumerated edge oracle: (pre_id, dep_id, match_type, prereq_index),
# in creation order (per paper, per contribution, per prerequisite, per
# match; late-bound edges follow the cited paper's own edges).
EXPECTED_EDGES = [
    ("7000001.c0", "7000001.c1", "strong", 0),
    ("7000001.c0", "7000002.c0", "strong", 0),
    ("7000002.c0", "7000002.c1", "strong", 0),
    ("7000002.c0", "7000002.c2", "strong", 0),
    ("7000002.c0", "7000003.c0", "strong", 0),
    ("7000002.c1", "7000003.c0", "weak", 0),
    ("7000003.c0", "7000003.c1", "strong", 0),
    ("7000001.c1", "7000003.c2", "weak", 0),
    ("7000003.c0", "7000004.c0", "strong", 0),
    ("7000004.c0", "7000004.c1", "strong", 0),
    ("7000003.c0", "7000005.c0", "weak", 1),
    ("7000005.c0", "7000005.c1", "strong", 0),
    ("7000003.c0", "7000006.c0", "strong", 0),
    ("7000006.c0", "7000006.c1", "strong", 0),
    ("7000006.c0", "7000005.c0", "strong", 0),  # late-bound
    ("7000005.c0", "7000007.c0", "weak", 0),
    ("7000004.c0", "7000007.c0", "weak", 1),
    ("7000007.c0", "7000007.c1", "strong", 0),
    ("7000007.c0", "7000008.c0", "strong", 0),
    ("7000002.c0", "7000008.c0", "weak", 1),
    ("7000008.c0", "7000008.c1", "strong", 0),
    ("7000008.c0", "7000009.c0", "strong", 0),
    ("7000008.c1", "7000009.c0", "weak", 0),
    ("7000009.c0", "7000009.c1", "strong", 0),
    ("7000007.c1", "7000009.c1", "weak", 1),
    ("7000009.c0", "7000010.c0", "strong", 0),
    ("7000008.c0", "7000010.c0", "weak", 1),
    ("7000010.c0", "7000010.c1", "strong", 0),
]

# Unresolved references left at the end of the full run (histogram keys).
EXPECTED_UNRESOLVED_KEYS = sorted(
    [
        "title:long short term memory|1997",
        "title:convolutional sequence to sequence learning|2017",
        "title:cloze procedure a new tool for measuring readability|1953",
        "title:distilling the knowledge in a neural network|2015",
        "title:exploring transfer learning with a unified text to text model|2020",
    ]
)

# Contributions per paper in the FINAL record (after splits).
FINAL_CONTRIBUTION_COUNTS = {
    "7000001": 2, "7000002": 3, "7000003": 3, "7000004": 2, "7000005": 2,
    "7000006": 2, "7000007": 2, "7000008": 2, "7000009": 2, "7000010": 2,
}


def expected_backend_calls() -> dict[str, dict[str, int]]:
    """Independent call-count oracle derived from the fixture data.

    Per paper: 1 stage-2 call, one stage-3 call per stage-2
    contribution, one alignment call per paper reference whose cited
    corpus is already extracted (forward) or that cites this paper from
    an earlier one (late). Assumes no retries fire.
    """
    extracted: list[str] = []
    pending_late: list[tuple[str, str]] = []  # (cited corpus, prereq name)
    out: dict[str, dict[str, int]] = {}
    for spec in PAPERS:
        forward = 0
        for entries in spec["stage3"].values():
            for entry in entries:
                for prereq in entry["prereqs"]:
                    for ref in prereq["refs"]:
                        if ref["kind"] != "paper" or ref["corpus_id"] is None:
                            continue
                        cited = str(ref["corpus_id"])
                        if cited in extracted:
                            forward += 1
                        else:
                            pending_late.append((cited, prereq["name"]))
        late = sum(1 for cited, _ in pending_late if cited == spec["corpus_id"])
        pending_late = [p for p in pending_late if p[0] != spec["corpus_id"]]
        stage3 = len(spec["stage2"])
        out[spec["corpus_id"]] = {
            "stage2": 1,
            "stage3": stage3,
            "alignment": forward + late,
            "total": 1 + stage3 + forward + late,
        }
        extracted.append(spec["corpus_id"])
    return out


# ----------------------------------------------------------------------
# Text, catalog, and scripted responses
# ----------------------------------------------------------------------


def echo_json(obj) -> str:
    """Format an object the way canned fixture responses do."""
    return "```\n" + json.dumps(obj, ensure_ascii=False, indent=2) + "\n```\n"


def store_response(directory: str | Path, prompt: str, response: str) -> Path:
    """Write the replay file ``MockBackend`` answers ``prompt`` with."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{prompt_hash(prompt)}.txt"
    path.write_text(response, encoding="utf-8")
    return path


def paper_text(spec: dict) -> str:
    lines = [
        f"[corpus:{spec['corpus_id']}]",
        spec["title"],
        "",
        "Abstract. " + spec["stage2"][0]["description"],
        "",
    ]
    for item in spec["stage2"]:
        lines.append(f"We contribute {item['name']}. {item['description']}")
    return "\n".join(lines) + "\n"


def _stage2_response(spec: dict) -> str:
    doc = {
        "contributions": [
            {
                "name": item["name"],
                "description": item["description"],
                "contribution_type": [
                    {"type": t, "justification": j} for t, j in item["types"]
                ],
                "sections": item["sections"],
            }
            for item in spec["stage2"]
        ]
    }
    return "Identified the contributions below.\n```\n" + json.dumps(
        doc, ensure_ascii=False, indent=2
    ) + "\n```\n"


def _ref_payload(ref: dict) -> dict:
    if ref["kind"] == "paper":
        out = {"type": "paper", "paper_title": ref["paper_title"]}
        if "first_author" in ref:
            out["first_author"] = ref["first_author"]
        out["year"] = ref["year"]
        out["venue"] = ref["venue"]
        out["corpus_id"] = ref["corpus_id"]
        return out
    if ref["kind"] == "internal":
        return {
            "type": "internal",
            "contribution_name": ref["contribution_name"],
            "contribution_key": ref["contribution_key"],
            "justification": ref["justification"],
        }
    return {"type": "other", "name": ref["name"], "url": ref["url"]}


def _stage3_response(spec: dict, key: str) -> str:
    doc = {
        "contributions": [
            {
                "key": entry["key"],
                "name": entry["name"],
                "description": entry["description"],
                "contribution_type": [
                    {"type": t, "justification": j} for t, j in entry["types"]
                ],
                "sections": entry["sections"],
                "prerequisites": [
                    {
                        "name": p["name"],
                        "description": p["description"],
                        "justification": p["justification"],
                        "core_or_peripheral": p["core"],
                        "references_in_paper": [_ref_payload(r) for r in p["refs"]],
                    }
                    for p in entry["prereqs"]
                ],
            }
            for entry in spec["stage3"][key]
        ]
    }
    return echo_json(doc)


_ALIGNMENTS: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
for _spec in PAPERS:
    _ALIGNMENTS.update(_spec["alignments"])


def _alignment_response(cited_corpus: str, prereq_name: str) -> str:
    matches = _ALIGNMENTS.get((cited_corpus, prereq_name))
    if matches is None:
        raise AssertionError(
            f"no scripted alignment for cited={cited_corpus} prereq={prereq_name!r}"
        )
    doc = {
        "matches": [
            {"contribution_key": cid, "explanation": expl, "match_type": mt}
            for cid, expl, mt in matches
        ],
        "overall_explanation": "Scripted fixture alignment.",
    }
    return echo_json(doc)


def _ranking_response(prompt: str) -> str:
    candidates_part = prompt.split("# Candidate Technologies", 1)[1]
    ids = re.findall(r'"id": "([^"]+)"', candidates_part)
    return "```\n" + json.dumps({"ranking": list(reversed(ids))}) + "\n```\n"


def scripted_response(prompt: str) -> str:
    """The fixture's stand-in model: answers any pipeline prompt."""
    marker = re.search(r"\[corpus:(\d+)\]", prompt)
    if prompt.startswith("# Contribution Extraction Prompt"):
        return _stage2_response(_BY_ID[marker.group(1)])
    if prompt.startswith("# Prerequisite Extraction Prompt"):
        section = prompt.split("# Specific Contribution/Claim Being Analyzed", 1)[1]
        key = re.search(r'"key": "([^"]+)"', section).group(1)
        return _stage3_response(_BY_ID[marker.group(1)], key)
    if prompt.startswith("# Cross-paper Prerequisite-to-Contribution Alignment Prompt"):
        prereq_name = re.search(
            r'"prerequisite": \{\s*"name": "([^"]+)"', prompt
        ).group(1)
        cited_section = prompt.split("# Cited Paper Information", 1)[1]
        cited_corpus = re.search(r'"corpus_id": "(\d+)"', cited_section).group(1)
        return _alignment_response(cited_corpus, prereq_name)
    if prompt.startswith("# Prerequisite Ranking Prompt"):
        return _ranking_response(prompt)
    raise AssertionError(f"unrecognized prompt: {prompt[:80]!r}")


class RecordingBackend(GenerationBackend):
    """Answers with the scripted responder and writes replay files."""

    name = "mock"

    def __init__(self, directory: Path, model: str = "replay"):
        super().__init__()
        self.directory = Path(directory)
        self.model = model

    def generate(self, prompt, temperature=0.0):
        response = scripted_response(prompt)
        store_response(self.directory, prompt, response)
        self._account(len(prompt) // 4, len(response) // 4, 0.0)
        return response


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


@dataclass
class CorpusPaths:
    root: Path
    texts_dir: Path
    catalog_path: Path
    mock_dir: Path
    cutoffs_path: Path


def write_corpus_files(root: Path) -> CorpusPaths:
    """Texts, catalog, and cutoffs (no mock responses yet)."""
    texts_dir = root / "texts"
    texts_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for spec in PAPERS:
        text_path = texts_dir / f"{spec['corpus_id']}.txt"
        text_path.write_text(paper_text(spec), encoding="utf-8")
        rows.append(
            {
                "corpus_id": spec["corpus_id"],
                "title": spec["title"],
                "year": spec["year"],
                "first_author_last": spec["author_last"],
                "open_access": True,
                "text_path": str(text_path),
                "date": spec["date"],
            }
        )
    catalog_path = root / "catalog.jsonl"
    write_jsonl(catalog_path, rows)
    cutoffs_path = root / "cutoffs.json"
    cutoffs_path.write_text(json.dumps(CUTOFFS, indent=2), encoding="utf-8")
    return CorpusPaths(root, texts_dir, catalog_path, root / "mock", cutoffs_path)


def paper_inputs(paths: CorpusPaths) -> list[PaperInput]:
    catalog = Catalog.load(paths.catalog_path)
    inputs = []
    for corpus_id in EXTRACTION_ORDER:
        entry = catalog.by_id[corpus_id]
        inputs.append(
            PaperInput(
                corpus_id=corpus_id,
                title=entry.title,
                year=entry.year,
                full_text=Path(entry.text_path).read_text(encoding="utf-8"),
            )
        )
    return inputs


def extract_each(pipeline: Pipeline, papers: list[PaperInput]) -> None:
    """Extract the papers in order, one ``run_batch`` each, as one
    ``extract`` per paper would; every paper must succeed."""
    for paper in papers:
        [(_, _, error)] = pipeline.run_batch([paper])
        assert error is None, f"{paper.corpus_id}: {error!r}"


def register_catalog(graph: ContributionGraph, paths: CorpusPaths) -> None:
    for entry in Catalog.load(paths.catalog_path).by_id.values():
        graph.register_paper(entry.paper_meta())


def extract_with_crash(paths: CorpusPaths, store: Path, save_after: int) -> ContributionGraph:
    """Extract the corpus into ``store`` as `extract` does (records and
    late alignments appended per paper), but save the views only once,
    after the first ``save_after`` papers: a writer that died before its
    final save. Returns the live graph."""
    graph = ContributionGraph()
    register_catalog(graph, paths)
    pipeline = Pipeline(
        MockBackend(paths.mock_dir), graph,
        records_path=store / "records.jsonl",
    )
    for i, paper in enumerate(paper_inputs(paths)):
        if i == save_after:
            graph.save(store)
        extract_each(pipeline, [paper])
    return graph


def build_corpus(root: Path) -> CorpusPaths:
    """Write corpus files and record every mock response by running the
    pipeline (and the e2e embed/taskgen/rank flow) against the scripted
    responder."""
    paths = write_corpus_files(root)
    backend = RecordingBackend(paths.mock_dir)
    graph = ContributionGraph()
    register_catalog(graph, paths)
    pipeline = Pipeline(backend, graph)
    extract_each(pipeline, paper_inputs(paths))

    index = build_index(graph, MockEmbeddingProvider(dim=EMBED_DIM))
    result = taskgen.generate_problems(
        graph, index, years=E2E_YEARS, n_per_year=E2E_PER_YEAR,
        rng_seed=E2E_SEED, k=E2E_K,
    )
    assert result.problems, "fixture produced no problems"
    evaluation.run_ranking(result.problems, backend)
    return paths
