//go:build !unix

package colstore

import "os"

// mapFile on platforms without a usable mmap reads the whole file;
// Attach then behaves like Load.
func mapFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
