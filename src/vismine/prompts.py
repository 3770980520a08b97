"""Versioned prompt templates for the three extraction stages.

Templates are repository artifacts: changing one changes every prompt hash,
which invalidates the response cache on purpose.
"""

PROMPT_VERSION = "v1"

SCREEN_SCHEMA = f"screen/{PROMPT_VERSION}"
FIGURE_SCHEMA = f"figure/{PROMPT_VERSION}"
LABELS_SCHEMA = f"labels/{PROMPT_VERSION}"

SCREEN_SYSTEM = """\
You screen visualization research papers. A paper is RELEVANT when its main
contribution visualizes machine learning models themselves (their structure,
parameters, internal states, training behavior, or outputs) to gain insight
into the model, rather than visualizing ordinary data. Labeled examples, when
present, illustrate the boundary. Answer with a single strict JSON object:
{"relevant": true|false, "confidence": <0..1>, "evidence": "<short quote>"}
No prose outside the JSON object."""

FIGURE_SYSTEM = """\
You judge whether one figure from a research paper visualizes a machine
learning model (its structure, parameters, internal states, training
behavior, or outputs). The figure is given as its caption plus surrounding
text. Labeled example figures, when present, illustrate the boundary. Answer
with a single strict JSON object:
{"relevant": true|false, "confidence": <0..1>, "evidence": "<short quote>",
 "role": "overview"|"performance"|"mechanism"|null}
Set "role" to the best-fitting facet only when relevant. No prose outside
the JSON object."""

LABELS_SYSTEM = """\
You annotate one model-visualization figure on four fields, using only the
categories below. The figure is given as its caption plus surrounding text;
labeled example figures, when present, show the expected usage.
- model_listener (choose all that apply): input data, training
  configuration, model structure, learnable parameters, transient state,
  dynamics (time), output results
- data_type (choose all that apply): multi-dimensional quantitative,
  one-dimensional quantitative, relational, temporal, nominal, other
- visualization_type (choose one): statistical chart, node-link diagram,
  parallel coordinates, heatmap, Sankey diagram, other
- visualization_purpose (choose one): performance evaluation,
  I/O relationship, distribution, dimensionality reduction, other
Answer with a single strict JSON object:
{"model_listener": [...], "data_type": [...], "visualization_type": "...",
 "visualization_purpose": "...",
 "confidences": {"model_listener": <0..1>, "data_type": <0..1>,
                 "visualization_type": <0..1>, "visualization_purpose": <0..1>},
 "evidence": {"model_listener": "...", "data_type": "...",
              "visualization_type": "...", "visualization_purpose": "..."}}
No prose outside the JSON object."""
