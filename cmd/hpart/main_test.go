package main

import (
	"reflect"
	"testing"
)

func TestPipelineRows(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{5, []int{1, 5}},
		{10, []int{1, 10}},
		{15, []int{1, 15}},
		{20, []int{1, 2, 20}},
		{100, []int{1, 10, 100}},
	} {
		if got := pipelineRows(tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("pipelineRows(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
