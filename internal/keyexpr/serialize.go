package keyexpr

import (
	"encoding/json"
	"fmt"
)

// jsonExpr is the persisted form of a key expression, stored inside record
// metadata so every stateless Record Layer instance evaluates indexes
// identically (§5).
type jsonExpr struct {
	Kind     string      `json:"kind"`
	Name     string      `json:"name,omitempty"`
	Fan      string      `json:"fan,omitempty"`
	Child    *jsonExpr   `json:"child,omitempty"`
	Children []*jsonExpr `json:"children,omitempty"`
	Grouped  int         `json:"grouped,omitempty"`
	Split    int         `json:"split,omitempty"`
	Literal  interface{} `json:"literal,omitempty"`
	Columns  int         `json:"columns,omitempty"`
}

func fanToString(f FanType) string { return f.String() }

func fanFromString(s string) (FanType, error) {
	switch s {
	case "", "scalar":
		return FanScalar, nil
	case "fanout":
		return FanOut, nil
	case "concatenate":
		return FanConcatenate, nil
	}
	return 0, fmt.Errorf("keyexpr: unknown fan type %q", s)
}

func toJSON(e Expression) (*jsonExpr, error) {
	switch x := e.(type) {
	case fieldExpr:
		return &jsonExpr{Kind: "field", Name: x.name, Fan: fanToString(x.fan)}, nil
	case nestExpr:
		c, err := toJSON(x.child)
		if err != nil {
			return nil, err
		}
		return &jsonExpr{Kind: "nest", Name: x.name, Fan: fanToString(x.fan), Child: c}, nil
	case thenExpr:
		out := &jsonExpr{Kind: "then"}
		for _, c := range x.children {
			jc, err := toJSON(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, jc)
		}
		return out, nil
	case GroupingExpression:
		c, err := toJSON(x.whole)
		if err != nil {
			return nil, err
		}
		return &jsonExpr{Kind: "grouping", Child: c, Grouped: x.grouped}, nil
	case KeyWithValueExpression:
		c, err := toJSON(x.child)
		if err != nil {
			return nil, err
		}
		return &jsonExpr{Kind: "keywithvalue", Child: c, Split: x.split}, nil
	case recordTypeExpr:
		return &jsonExpr{Kind: "recordtype"}, nil
	case versionExpr:
		return &jsonExpr{Kind: "version"}, nil
	case literalExpr:
		return &jsonExpr{Kind: "literal", Literal: x.value}, nil
	case emptyExpr:
		return &jsonExpr{Kind: "empty"}, nil
	case functionExpr:
		return &jsonExpr{Kind: "function", Name: x.name, Columns: x.def.columns}, nil
	default:
		return nil, fmt.Errorf("keyexpr: cannot serialize expression type %T", e)
	}
}

// fromJSON decodes one persisted expression. Metadata bytes are untrusted: a
// missing child is an error, and so is a split point outside its child's
// columns, which index evaluation would otherwise slice past.
func fromJSON(j *jsonExpr) (Expression, error) {
	if j == nil {
		return nil, fmt.Errorf("keyexpr: missing child expression")
	}
	switch j.Kind {
	case "field":
		fan, err := fanFromString(j.Fan)
		if err != nil {
			return nil, err
		}
		return fieldExpr{name: j.Name, fan: fan}, nil
	case "nest":
		fan, err := fanFromString(j.Fan)
		if err != nil {
			return nil, err
		}
		child, err := fromJSON(j.Child)
		if err != nil {
			return nil, err
		}
		return newNest(j.Name, fan, child), nil
	case "then":
		children := make([]Expression, 0, len(j.Children))
		for _, jc := range j.Children {
			c, err := fromJSON(jc)
			if err != nil {
				return nil, err
			}
			children = append(children, c)
		}
		return Then(children...), nil
	case "grouping":
		child, err := fromJSON(j.Child)
		if err != nil {
			return nil, err
		}
		if err := checkSplit("grouped", j.Grouped, child); err != nil {
			return nil, err
		}
		return GroupingExpression{whole: child, grouped: j.Grouped}, nil
	case "keywithvalue":
		child, err := fromJSON(j.Child)
		if err != nil {
			return nil, err
		}
		if err := checkSplit("split", j.Split, child); err != nil {
			return nil, err
		}
		return KeyWithValueExpression{child: child, split: j.Split}, nil
	case "recordtype":
		return recordTypeExpr{}, nil
	case "version":
		return versionExpr{}, nil
	case "literal":
		return literalExpr{value: normalizeLiteral(j.Literal)}, nil
	case "empty":
		return emptyExpr{}, nil
	case "function":
		return Function(j.Name)
	default:
		return nil, fmt.Errorf("keyexpr: unknown expression kind %q", j.Kind)
	}
}

// checkSplit rejects a column split point n outside [0, child's columns].
func checkSplit(what string, n int, child Expression) error {
	if n < 0 || n > child.ColumnCount() {
		return fmt.Errorf("keyexpr: %s %d outside the child's %d columns", what, n, child.ColumnCount())
	}
	return nil
}

// normalizeLiteral maps JSON's float64 numbers back to int64 when they are
// integral, matching how literal key columns are normally used.
func normalizeLiteral(v interface{}) interface{} {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int64(f)
	}
	return v
}

// Marshal serializes an expression for metadata storage.
func Marshal(e Expression) ([]byte, error) {
	j, err := toJSON(e)
	if err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// Unmarshal reconstructs a serialized expression. Function expressions
// require their implementations to be registered first.
func Unmarshal(data []byte) (Expression, error) {
	var j jsonExpr
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("keyexpr: corrupt expression: %v", err)
	}
	return fromJSON(&j)
}
