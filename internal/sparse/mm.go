package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a Matrix Market "coordinate real" matrix from r.
// Both "general" and "symmetric" symmetry fields are supported; symmetric
// files store the lower triangle and are expanded on read. Pattern files are
// read with all values set to 1. Only square matrices are accepted, since
// every consumer in this repository solves Ax=b. Malformed input, including
// a size line with negative counts, more entries than rows×cols, or more
// than maxMMDim rows, is an error, never a panic.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	field, symm := header[3], header[4]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	if symm != "general" && symm != "symmetric" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symm)
	}

	// Skip comments, find size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative MatrixMarket size %d %d %d", rows, cols, nnz)
	}
	if rows != cols {
		return nil, fmt.Errorf("sparse: non-square MatrixMarket matrix %dx%d", rows, cols)
	}
	if rows > maxMMDim {
		return nil, fmt.Errorf("sparse: MatrixMarket dimension %d exceeds the limit %d", rows, maxMMDim)
	}
	// nnz > rows*cols, without forming the product.
	if nnz > 0 && (rows == 0 || (nnz-1)/rows >= cols) {
		return nil, fmt.Errorf("sparse: MatrixMarket declares %d entries for a %dx%d matrix", nnz, rows, cols)
	}

	// The declared count only hints the capacity: a lying size line must
	// not reserve memory the stream never fills.
	capHint := nnz
	if symm == "symmetric" {
		capHint *= 2
	}
	coo := NewCOO(rows, min(capHint, maxMMCapHint))
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		i--
		j--
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) out of range", i+1, j+1)
		}
		coo.Add(i, j, v)
		if symm == "symmetric" && i != j {
			coo.Add(j, i, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket: %v", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket declared %d entries, found %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

// maxMMDim bounds the dimension ReadMatrixMarket accepts: the CSR row
// pointers alone cost 8 bytes per row, even for a file with no entries.
// It is ten times the largest matrix of the paper's suite (Flan_1565,
// 1.56M rows).
const maxMMDim = 1 << 24

// maxMMCapHint caps the entry capacity ReadMatrixMarket reserves up front;
// larger files grow the builder by append as their entries arrive.
const maxMMCapHint = 1 << 20

// WriteMatrixMarket writes the matrix in "coordinate real general" format.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.N, a.N, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.Col[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
