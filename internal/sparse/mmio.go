package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market exchange format support (the format used to distribute
// the University of Florida / SuiteSparse collection the paper tests on).
// Supported: "matrix coordinate (real|integer|pattern) (general|symmetric)".

// ReadMatrixMarket parses a sparse matrix in Matrix Market coordinate
// format. Symmetric storage is expanded to general form (mirror entries
// added for off-diagonal nonzeros), matching how partitioners consume the
// pattern. Complex and dense ("array") matrices are rejected.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	format, valType, symm := fields[2], fields[3], fields[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket format %q (only coordinate)", format)
	}
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", valType)
	}
	switch symm {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symm)
	}

	var rows, cols, nnz int
	sizeRead := false
	var a *Matrix
	scan := bufio.NewScanner(br)
	scan.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 1
	for scan.Scan() {
		line++
		text := strings.TrimSpace(scan.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		f := strings.Fields(text)
		if !sizeRead {
			if len(f) != 3 {
				return nil, fmt.Errorf("sparse: line %d: want 'rows cols nnz', got %q", line, text)
			}
			var err error
			if rows, err = strconv.Atoi(f[0]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: bad row count: %w", line, err)
			}
			if cols, err = strconv.Atoi(f[1]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: bad col count: %w", line, err)
			}
			if nnz, err = strconv.Atoi(f[2]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: bad nnz count: %w", line, err)
			}
			a = New(rows, cols)
			if valType != "pattern" {
				a.Val = make([]float64, 0, nnz)
			}
			a.RowIdx = make([]int, 0, nnz)
			a.ColIdx = make([]int, 0, nnz)
			sizeRead = true
			continue
		}
		want := 3
		if valType == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: line %d: too few fields in %q", line, text)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad row index: %w", line, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad col index: %w", line, err)
		}
		v := 1.0
		if valType != "pattern" {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("sparse: line %d: bad value: %w", line, err)
			}
		}
		// Matrix Market is 1-based.
		a.Append(i-1, j-1, v)
		if symm != "general" && i != j {
			mv := v
			if symm == "skew-symmetric" {
				mv = -v
			}
			a.Append(j-1, i-1, mv)
		}
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("sparse: scanning MatrixMarket body: %w", err)
	}
	if !sizeRead {
		return nil, fmt.Errorf("sparse: MatrixMarket file has no size line")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// WriteMatrixMarket writes the matrix in general coordinate format.
// Pattern matrices are written with the "pattern" field.
func WriteMatrixMarket(w io.Writer, a *Matrix) error {
	bw := bufio.NewWriter(w)
	field := "real"
	if a.Val == nil {
		field = "pattern"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for k := range a.RowIdx {
		var err error
		if a.Val != nil {
			_, err = fmt.Fprintf(bw, "%d %d %.17g\n", a.RowIdx[k]+1, a.ColIdx[k]+1, a.Val[k])
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", a.RowIdx[k]+1, a.ColIdx[k]+1)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
