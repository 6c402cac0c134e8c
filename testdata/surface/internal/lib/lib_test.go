package lib

import "testing"

func TestCited(t *testing.T) { Cited() }
