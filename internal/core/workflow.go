// Package core is HELIX's programming interface and compiler (§2.1–2.2): a
// declarative workflow-building API (the Go analogue of the paper's Scala
// DSL), an intermediate code generator that turns a Workflow into a DAG of
// operators with Merkle result signatures, and a Session driver that runs
// iterations end-to-end through the optimizers and the execution engine.
//
// The DSL verbs map onto the paper's:
//
//	paper                              this package
//	-----------------------------      -------------------------------
//	name refers_to Op                  wf.Source("name", op) / wf.Apply
//	data is_read_into rows using Op    wf.Apply("rows", op, "data")
//	out results_from op on in          wf.Apply("out", op, "in", ...)
//	x is_output()                      wf.Output("x")
package core

import (
	"fmt"
	"sort"
)

// Category classifies operators for the iteration-type statistics and the
// comparator systems' reuse rules. The paper's Figure 2 color-codes
// iterations with the same three classes.
type Category string

const (
	// CatPrep covers data loading, parsing and feature engineering (purple).
	CatPrep Category = "prep"
	// CatML covers learning and inference (orange).
	CatML Category = "ml"
	// CatEval covers post-processing and metrics (green).
	CatEval Category = "eval"
)

// Operator is one workflow operation. Implementations must be pure given
// their inputs: the Merkle signature (Type, Params, UDFVersion + input
// signatures) is assumed to identify the result content.
type Operator interface {
	// Type is the operator's type name ("scanner", "learner", ...).
	Type() string
	// Category classifies the operator for reuse rules and statistics.
	Category() Category
	// Params returns the signature-relevant configuration.
	Params() map[string]string
	// UDFVersion is a version tag for embedded user code; bump it to signal
	// a semantic change the params cannot capture (the paper detects this
	// via source version control).
	UDFVersion() string
	// Apply computes the result from parent values, ordered as declared.
	Apply(inputs []any) (any, error)
}

// decl is one DSL statement.
type decl struct {
	name   string
	op     Operator
	inputs []string
	output bool
}

// Workflow is a declarative program under construction: an ordered list of
// named operator applications. Building never fails; Compile validates.
type Workflow struct {
	name  string
	decls []*decl
	index map[string]*decl
	errs  []error
}

// NewWorkflow starts an empty workflow with the given name.
func NewWorkflow(name string) *Workflow {
	return &Workflow{name: name, index: make(map[string]*decl)}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// Source declares a node with no inputs (paper: `data refers_to new
// FileSource(...)`).
func (w *Workflow) Source(name string, op Operator) *Workflow {
	return w.Apply(name, op)
}

// Apply declares that name results from applying op to the named inputs.
// Inputs must already be declared; errors are accumulated and reported by
// Compile so call sites stay chainable.
func (w *Workflow) Apply(name string, op Operator, inputs ...string) *Workflow {
	if _, dup := w.index[name]; dup {
		w.errs = append(w.errs, fmt.Errorf("core: duplicate declaration %q", name))
		return w
	}
	if op == nil {
		w.errs = append(w.errs, fmt.Errorf("core: nil operator for %q", name))
		return w
	}
	for _, in := range inputs {
		if _, ok := w.index[in]; !ok {
			w.errs = append(w.errs, fmt.Errorf("core: %q references undeclared input %q", name, in))
			return w
		}
	}
	d := &decl{name: name, op: op, inputs: append([]string(nil), inputs...)}
	w.decls = append(w.decls, d)
	w.index[name] = d
	return w
}

// Output marks a declared node as a workflow output (paper: `is_output()`).
func (w *Workflow) Output(name string) *Workflow {
	d, ok := w.index[name]
	if !ok {
		w.errs = append(w.errs, fmt.Errorf("core: output %q not declared", name))
		return w
	}
	d.output = true
	return w
}

// Names returns all declared names in declaration order.
func (w *Workflow) Names() []string {
	out := make([]string, len(w.decls))
	for i, d := range w.decls {
		out[i] = d.name
	}
	return out
}

// SourceText renders the workflow as pseudo-DSL source — the version store
// keeps it so the demo's version browser can show git-style code diffs.
func (w *Workflow) SourceText() string {
	var b []byte
	b = append(b, fmt.Sprintf("workflow %s {\n", w.name)...)
	for _, d := range w.decls {
		line := fmt.Sprintf("  %s results_from %s", d.name, d.op.Type())
		params := d.op.Params()
		if len(params) > 0 {
			keys := make([]string, 0, len(params))
			for k := range params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			line += "("
			for i, k := range keys {
				if i > 0 {
					line += ", "
				}
				line += fmt.Sprintf("%s=%s", k, params[k])
			}
			line += ")"
		}
		if v := d.op.UDFVersion(); v != "" {
			line += " udf:" + v
		}
		if len(d.inputs) > 0 {
			line += " on "
			for i, in := range d.inputs {
				if i > 0 {
					line += ", "
				}
				line += in
			}
		}
		if d.output {
			line += " is_output"
		}
		b = append(b, (line + "\n")...)
	}
	b = append(b, "}\n"...)
	return string(b)
}
