package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/sig"
)

// AttrCategory is the dag node attribute holding the operator category.
const AttrCategory = "category"

// Compiled is the intermediate-code-generator output (§2.2): the operations
// DAG with Merkle result signatures, plus the executable task per node.
type Compiled struct {
	Workflow *Workflow
	Graph    *dag.Graph
	// Ops[i] is node i's operator.
	Ops []Operator
	// Sigs[i] is node i's result signature (Merkle over the upstream DAG).
	Sigs []sig.Signature
	// Tasks[i] is the execution-engine binding for node i.
	Tasks []exec.Task
}

// Compile translates a Workflow into its DAG form, validating the program:
// unique names, declared inputs, at least one output, acyclicity (by
// construction — inputs must pre-exist — but verified anyway).
func Compile(w *Workflow) (*Compiled, error) {
	if len(w.errs) > 0 {
		return nil, fmt.Errorf("core: workflow %s has declaration errors: %w", w.name, errors.Join(w.errs...))
	}
	if len(w.decls) == 0 {
		return nil, fmt.Errorf("core: workflow %s is empty", w.name)
	}
	g := dag.New()
	ops := make([]Operator, 0, len(w.decls))
	hasOutput := false
	for _, d := range w.decls {
		id, err := g.AddNode(d.name, d.op.Type())
		if err != nil {
			return nil, err
		}
		g.Node(id).Output = d.output
		g.Node(id).Attrs[AttrCategory] = string(d.op.Category())
		hasOutput = hasOutput || d.output
		ops = append(ops, d.op)
	}
	for _, d := range w.decls {
		child := g.Lookup(d.name)
		for _, in := range d.inputs {
			if err := g.AddEdge(g.Lookup(in), child); err != nil {
				return nil, err
			}
		}
	}
	if !hasOutput {
		return nil, fmt.Errorf("core: workflow %s declares no outputs", w.name)
	}
	opSigs := make([]sig.Signature, len(ops))
	for i, op := range ops {
		opSigs[i] = sig.Operator(op.Type(), op.Params(), op.UDFVersion())
	}
	resSigs, err := sig.Annotate(g, opSigs)
	if err != nil {
		return nil, err
	}
	tasks := make([]exec.Task, len(ops))
	for i, op := range ops {
		tasks[i] = exec.Task{
			Key: string(resSigs[i]),
			Run: bindRun(op),
		}
	}
	return &Compiled{Workflow: w, Graph: g, Ops: ops, Sigs: resSigs, Tasks: tasks}, nil
}

// CtxOperator is an optional Operator extension for long-running operators:
// ApplyCtx receives the engine's run context, carrying first-error
// cancellation, so the operator can be interrupted instead of waited out.
type CtxOperator interface {
	Operator
	ApplyCtx(ctx context.Context, inputs []any) (any, error)
}

// bindRun adapts an operator to the engine's context-threaded task
// signature. Context-aware operators get the context end-to-end; plain
// operators get a pre-flight cancellation check, so a cancelled run at
// least never starts them.
func bindRun(op Operator) func(context.Context, []any) (any, error) {
	if co, ok := op.(CtxOperator); ok {
		return co.ApplyCtx
	}
	return func(ctx context.Context, inputs []any) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return op.Apply(inputs)
	}
}

// Category returns node id's operator category.
func (c *Compiled) Category(id dag.NodeID) Category {
	return Category(c.Graph.Node(id).Attrs[AttrCategory])
}
