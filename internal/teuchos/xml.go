package teuchos

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file implements the XML serialization Teuchos::ParameterList is
// known for (paper Table I: "parameter lists, reference counted pointers,
// XML I/O"), in the Trilinos ParameterList XML schema:
//
//	<ParameterList name="solver">
//	  <Parameter name="tolerance" type="double" value="1e-08"/>
//	  <ParameterList name="smoother"> ... </ParameterList>
//	</ParameterList>

type xmlList struct {
	XMLName xml.Name   `xml:"ParameterList"`
	Name    string     `xml:"name,attr"`
	Params  []xmlParam `xml:"Parameter"`
	Lists   []xmlList  `xml:"ParameterList"`
}

type xmlParam struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"type,attr"`
	Value string `xml:"value,attr"`
}

func (p *ParameterList) toXML() xmlList {
	out := xmlList{Name: p.Name()}
	for _, k := range p.Keys() {
		p.mu.Lock()
		v := p.values[k]
		p.mu.Unlock()
		xp := xmlParam{Name: k}
		switch x := v.(type) {
		case int:
			xp.Type, xp.Value = "int", strconv.Itoa(x)
		case int64:
			xp.Type, xp.Value = "int", strconv.FormatInt(x, 10)
		case float64:
			xp.Type, xp.Value = "double", strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			xp.Type, xp.Value = "bool", strconv.FormatBool(x)
		case string:
			xp.Type, xp.Value = "string", x
		default:
			xp.Type, xp.Value = "string", fmt.Sprintf("%v", x)
		}
		out.Params = append(out.Params, xp)
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.subs))
	for k := range p.subs {
		names = append(names, k)
	}
	p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		out.Lists = append(out.Lists, p.Sublist(name).toXML())
	}
	return out
}

// WriteXML serializes the list in the Trilinos ParameterList XML schema.
func (p *ParameterList) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(p.toXML()); err != nil {
		return fmt.Errorf("teuchos: XML encode: %w", err)
	}
	return enc.Flush()
}

// ReadXML parses a Trilinos-schema ParameterList document.
func ReadXML(r io.Reader) (*ParameterList, error) {
	var root xmlList
	if err := xml.NewDecoder(r).Decode(&root); err != nil {
		return nil, fmt.Errorf("teuchos: XML decode: %w", err)
	}
	return fromXML(root)
}

func fromXML(x xmlList) (*ParameterList, error) {
	p := NewParameterList(x.Name)
	for _, param := range x.Params {
		switch param.Type {
		case "int":
			v, err := strconv.Atoi(param.Value)
			if err != nil {
				return nil, fmt.Errorf("teuchos: parameter %q: bad int %q", param.Name, param.Value)
			}
			p.Set(param.Name, v)
		case "double":
			v, err := strconv.ParseFloat(param.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("teuchos: parameter %q: bad double %q", param.Name, param.Value)
			}
			p.Set(param.Name, v)
		case "bool":
			v, err := strconv.ParseBool(param.Value)
			if err != nil {
				return nil, fmt.Errorf("teuchos: parameter %q: bad bool %q", param.Name, param.Value)
			}
			p.Set(param.Name, v)
		case "string":
			p.Set(param.Name, param.Value)
		default:
			return nil, fmt.Errorf("teuchos: parameter %q has unknown type %q", param.Name, param.Type)
		}
	}
	for _, sub := range x.Lists {
		sp, err := fromXML(sub)
		if err != nil {
			return nil, err
		}
		p.Sublist(sp.Name()).Merge(sp)
	}
	return p, nil
}
